// Package sam reproduces the SAM shared-object system of Scales & Lam: a
// software distributed shared memory that communicates shared data in
// units of whole user-defined objects, with two kinds of shared data —
// single-assignment *values* and mutual-exclusion *accumulators* — plus
// dynamic caching, a global name space, and the transparent fault
// tolerance of the USENIX '96 paper layered on the same cache.
//
// Each SAM process runs three goroutines:
//
//   - the application goroutine (the caller of Run), which executes the
//     application's Init/Step loop; its only contact with the runtime is
//     its one command slot, through which every API call goes, Compute
//     included;
//   - the runtime goroutine, which owns all shared-object state and the
//     process's modeled clock, and processes both application commands
//     and network messages, so the process keeps serving remote requests
//     while the application computes or blocks;
//   - the receiver goroutine, which moves messages from the PVM mailbox
//     into the runtime's queue.
//
// Fault tolerance follows §4 of the paper: a process checkpoints by
// replicating its private state and its dirty owned objects into the
// caches of other processes — never to disk — and does so only when it is
// about to send nonreproducible data to another process. Recovery restarts
// only the failed process; everyone else keeps running.
package sam

import (
	"fmt"

	"samft/internal/ckptstore"
	"samft/internal/ft"
	"samft/internal/pvm"
	"samft/internal/stats"
)

// Name identifies a shared object in the global name space. Applications
// compose names with MkName so that every process derives identical names
// for the same logical object without communication.
type Name uint64

// MkName builds a structured name from a family tag and two indices, as
// SAM applications conventionally name objects ("the value for generation
// g produced by process r"). The family uses 16 bits and each index 24.
func MkName(family, a, b int) Name {
	if family < 0 || family > 0xffff || a < 0 || a > 0xffffff || b < 0 || b > 0xffffff {
		panic(fmt.Sprintf("sam: MkName(%d,%d,%d) out of range", family, a, b))
	}
	return Name(uint64(family)<<48 | uint64(a)<<24 | uint64(b))
}

func (n Name) String() string {
	return fmt.Sprintf("%d/%d/%d", uint64(n)>>48, (uint64(n)>>24)&0xffffff, uint64(n)&0xffffff)
}

// Unlimited declares that a value's accesses are not counted; the owner
// frees it only on an explicit FreeValue call.
const Unlimited = 0

// Config configures one SAM process.
type Config struct {
	// Rank is this process's stable logical index, 0..N-1. Ranks survive
	// recovery; PVM task ids do not.
	Rank int
	// Ranks maps rank -> current PVM tid at boot time; its length is the
	// number of processes N in the computation.
	Ranks []pvm.TID
	// Policy selects the fault-tolerance policy (off / paper / naive).
	Policy ft.Policy
	// Degree is the replication degree n of §4.2 (default 1): the number
	// of simultaneous host failures that remain recoverable.
	Degree int
	// Placement selects the ckptstore checkpoint-copy placement policy
	// (ring, the paper's rule and the default; or spread).
	Placement ckptstore.Kind
	// EagerFree replaces the §4.3 virtual-time protocol for freeing main
	// copies with an eager round-trip to all processes on every free — the
	// ablation baseline. The zero value is the paper's lazy protocol.
	EagerFree bool
	// NoSnapCache disables the version-keyed snapshot cache: every send or
	// checkpoint of an owned object then re-packs its contents, as the
	// original reproduction did. The cache is on by default; this knob
	// exists for ablations and for cross-checking byte-exactness in tests.
	NoSnapCache bool
	// Stats receives this process's counters; the harness passes one
	// *stats.Proc per rank so counters survive restarts.
	Stats *stats.Proc
	// Recovering marks a process being restarted by the recovery
	// procedure: it waits for its private state instead of running Init.
	Recovering bool
	// Respawn is invoked on the recovery coordinator to restart a failed
	// rank at the coordinator's modeled instant atUS; dead names the
	// incarnation being replaced so the harness can make the restart
	// idempotent (if the rank was already restarted by a competing
	// coordinator, the existing incarnation's tid is returned unchanged).
	// Returns NoTID while the harness is shutting down. Supplied by the
	// cluster harness.
	Respawn func(rank int, dead pvm.TID, atUS float64) pvm.TID
}

func (c *Config) fill() {
	if c.Degree == 0 {
		c.Degree = 1
	}
	if c.Stats == nil {
		c.Stats = &stats.Proc{}
	}
}

// App is the interface applications implement to run under SAM's
// step-structured execution model. The framework checkpoints application
// private state at step boundaries; within a step the application may
// perform any SAM operations but must release accessors (DoneValue,
// ReleaseAccum) before the step returns, and must keep all cross-step
// state inside the snapshot rather than in Go pointers to shared objects.
//
// This is the reproduction's substitute for the paper's capture of raw
// task stacks (impossible for Go goroutines): applications written
// against this interface get fault tolerance with no FT-specific code,
// preserving the paper's transparency property at the framework level.
type App interface {
	// Init runs once when the process starts fresh (not on recovery).
	Init(p *Proc)
	// Step executes application step (1-based); returning false ends the
	// application. Steps must be deterministic functions of the snapshot
	// state and the SAM values they read, because recovery replays the
	// step in progress at the time of a crash.
	Step(p *Proc, step int64) bool
	// Snapshot returns the application's private state. The result must
	// be of a codec-registered type and must not alias state the
	// application keeps mutating (it is packed immediately).
	Snapshot() interface{}
	// Restore re-initializes the application from a snapshot previously
	// produced by Snapshot.
	Restore(state interface{})
}

// computeRate converts modeled pack/copy work to time: bytes per
// microsecond of local CPU charged when serializing checkpoint state
// (roughly 100 MB/s, the memcpy-and-convert rate of the paper's era).
const packBytesPerUS = 100.0
