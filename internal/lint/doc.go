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
//   - lockheld — enforces the *Locked naming convention: a function
//     suffixed "Locked" must not lock its receiver's mutex (it runs with
//     the lock already held), and a caller of a *Locked function must
//     hold the corresponding mutex on every path to the call.
//   - codecregistered — verifies every concrete type passed to
//     codec.Pack / codec.PackedSize / codec.DeepCopy is registered, and
//     that registered types carry no unexported fields, which the codec
//     silently drops from the wire format.
//   - lockorder — builds the module-wide lock-acquisition graph from
//     //samlint:lockclass-annotated mutexes, verifies every observed
//     nesting (including through any depth of cross-package calls) is
//     declared with a //samlint:lockorder directive, and rejects cycles
//     in the declared∪observed order — the classic deadlock shape. It
//     and lockheld decide "which mutexes are held here" with one shared
//     path-sensitive walker, package lockflow.
//   - noalloc — functions annotated //samlint:hotpath, and everything
//     they transitively call, must be free of heap allocation: make/new,
//     growing appends, composite literals, closures, interface boxing,
//     string concatenation/conversion, goroutine spawns, and fmt/reflect
//     calls are all flagged. Error/panic paths are cold and exempt; a
//     //samlint:coldpath function (one-time amortized work, like codec
//     plan compilation) contributes nothing to its callers' budgets.
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
// # The facts engine
//
// lockorder, noalloc, and tagflow are interprocedural across package
// boundaries. They use a reimplementation of the go/analysis facts
// model (internal/lint/analysis): while checking a package, an analyzer
// exports typed facts about its functions ("may acquire these lock
// classes", "allocates at these sites", "packs these types") keyed by
// types.Object, and because the driver visits packages in dependency
// order over a shared type-checker (object identity is preserved),
// downstream passes import those facts instead of re-analyzing their
// dependencies. A Finish hook then runs once with the module-wide fact
// store to correlate per-package summaries — that is where lock-order
// cycles and orphaned tags, which no single package can see, are
// reported. Facts are invalidated per exporting package (DropPackage),
// so an edited package re-exports fresh facts on re-check.
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
// lockheld, noalloc, ...) or an analyzer's category; nowallclock uses
// the category "wallclock", so the canonical escape hatch for an
// intentional wall-clock read is:
//
//	e.WallNS = time.Now().UnixNano() //samlint:allow wallclock
//
// The key "all" suppresses every analyzer on that line; prefer naming
// the specific check. An optional "--" introduces a free-form reason.
// Directives that stop suppressing anything are themselves reported by
// staleallow. The remaining directives declare structure rather than
// suppress findings:
//
//	mu sync.Mutex //samlint:lockclass netsim.network
//	//samlint:lockorder cluster.cluster < pvm.machine -- respawn holds c.mu across Spawn
//	//samlint:hotpath
//	//samlint:coldpath plan compilation runs once per type, then caches
//
// lockclass names a mutex's class in the module lock hierarchy;
// lockorder declares one permitted nesting ("the right side may be
// acquired while the left is held"); hotpath marks a function whose
// steady-state execution must not allocate; coldpath marks a function
// whose work is amortized (one-time or per-rare-event) and therefore
// excluded from hot-path accounting.
//
// # Running
//
// The multichecker binary lives in cmd/samlint:
//
//	go run ./cmd/samlint ./...        # human-readable findings
//	go run ./cmd/samlint -json ./...  # machine-readable, incl. suppressed
//
// It exits 0 when the tree is clean, 1 when there are findings, and 2 on
// load/type-check failure. Unlike go/analysis-based vet tools, samlint
// cannot be plugged into `go vet -vettool=...`: the vet protocol drives
// one package at a time, while the module-scoped and fact-based
// analyzers need the whole module at once (and the offline build cannot
// vendor x/tools, whose unitchecker implements that protocol). CI runs
// the standalone binary right next to `go vet`, which covers the same
// ground with one shared type-check for the entire suite.
package lint
