// Package lint is samlint: two static analyzers that enforce the
// determinism rules the simulation's reproducibility depends on (see
// DESIGN.md §6a).
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
//
// Both are per-package checks. There is no suppression directive: the
// tree has no sanctioned violation, and a host-side wall-clock read
// belongs outside internal/, where nowallclock does not look.
//
// # Running
//
// The suite has one driver, the TestModuleClean test in this package:
//
//	go test -run '^TestModuleClean$' ./internal/lint
//
// It loads and type-checks the whole module once, runs the two analyzers
// over every package, and fails on any finding or type error. CI runs it
// as its own step, without -race: the suite runs in one goroutine, so the
// race detector finds nothing and only slows the load.
//
// Registration rules for the codec are not lint: codec.Register refuses a
// type it cannot encode whole when its package initialises, and Pack of an
// unregistered type returns codec.ErrNotRegistered.
package lint
