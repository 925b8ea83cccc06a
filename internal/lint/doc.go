// Package lint is samlint: a suite of static analyzers that mechanically
// enforce the determinism and protocol invariants the paper's recovery
// guarantees depend on. The rules were previously unwritten reviewer
// knowledge; two earlier changes each fixed a latent violation (a
// dead-watcher notification hole, an unsynchronized result box) that
// these checks would have rejected at vet time.
//
// # Analyzers
//
//   - nowallclock — forbids wall-clock reads (time.Now, time.Since,
//     time.Sleep, time.Until, time.Tick, time.After, time.AfterFunc) and
//     global math/rand use inside deterministic packages (everything
//     under internal/). Simulated layers must use modeled time (netsim
//     clocks) and seeded xrand; timer/ticker constructors stay legal for
//     host-side timeouts.
//   - detiter — flags `range` over a map whose body reaches a message
//     send or trace emit without an intervening sort: map order is
//     random per process, so anything it feeds onto the wire or into a
//     trace track breaks run-to-run reproducibility.
//   - tagflow — the message-tag namespace and the dataflow through it,
//     from one module walk. Namespace: collects every PVM/SAM message-tag
//     constant (names matching Tag*), rejects duplicate tag values, tags
//     below TagUserBase, and Send/Recv/TryRecv/Probe call sites whose
//     constant tag argument is not a registered tag. Dataflow: every
//     constant tag passed to Send must have receive evidence somewhere in
//     the module (a Recv/TryRecv/Probe with that constant, a .Tag
//     comparison, or a switch case), and where the payload's
//     codec.Pack/Unpack provenance is visible the packed type must be
//     among the types the tag's receivers assert.
//   - staleallow — runs last and audits the suppression system itself:
//     a //samlint:allow directive that no longer suppresses anything is
//     reported as stale, and a key naming no analyzer in the suite is
//     reported as a probable typo.
//
// # Module scope
//
// tagflow and staleallow are module-scope analyzers: the driver runs each
// once over every loaded package, in dependency order, instead of once per
// package. A pack helper in one package can feed a send in another, and a
// directive is stale only if no analyzer anywhere used it, so these checks
// need the whole module. tagflow keeps pack and
// unpack provenance in maps keyed by *types.Func (the loader type-checks
// each package once, so an object is the same wherever it is used), and
// correlates every send with every piece of receive evidence at the end of
// its one walk.
//
// # Directives
//
// An intentional violation is annotated in place:
//
//	//samlint:allow <key> [<key>...] [-- reason]
//
// The directive suppresses matching findings on its own line and on the
// line directly below it, so it can trail the offending expression or
// stand alone above the statement. <key> is an analyzer name (detiter,
// tagflow, ...) or an analyzer's category; nowallclock uses the category
// "wallclock", so the canonical escape hatch for an intentional
// wall-clock read is:
//
//	e.WallNS = time.Now().UnixNano() //samlint:allow wallclock
//
// The key "all" suppresses every analyzer on that line; prefer naming
// the specific check. An optional "--" introduces a free-form reason.
// Directives that stop suppressing anything are themselves reported by
// staleallow.
//
// # Running
//
// The suite has one driver, the TestModuleClean test in this package:
//
//	go test -run '^TestModuleClean$' ./internal/lint
//
// It loads and type-checks the whole module once, runs the four analyzers
// over every package, and fails on any finding or type error. CI runs it
// as its own step, without -race: the suite runs in one goroutine, so the
// race detector finds nothing and only slows the load. The module-scope
// analyzers need the whole module at once, so the suite cannot run as a
// one-package-at-a-time `go vet -vettool` plugin.
//
// Registration rules for the codec are not lint: codec.Register refuses a
// type it cannot encode whole when its package initialises, and Pack of an
// unregistered type returns codec.ErrNotRegistered.
package lint
