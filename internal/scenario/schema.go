package scenario

// The schema types mirror the JSON format one-to-one; see the package
// documentation for the file layout. Pointer fields distinguish "omitted"
// from meaningful zero values (rank 0, false, 0 kills).

// Scenario is one declarative failure scenario.
type Scenario struct {
	// Name identifies the scenario in reports and trace directory names.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Fleet       Fleet  `json:"fleet"`
	// Seed drives the network-chaos randomness (jitter, notify fates).
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events,omitempty"`
	Assert Assert  `json:"assert,omitempty"`
}

// Fleet describes the simulated cluster and workload.
type Fleet struct {
	// Procs is the number of simulated workstations (one SAM process each).
	Procs int `json:"procs"`
	// App is the application: "gps", "water", or "barnes".
	App string `json:"app"`
	// Scale is the workload size: "small" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	FT    FT     `json:"ft,omitempty"`
}

// FT configures the fault-tolerance layer under test.
type FT struct {
	// Policy is "sam" (default), "naive", or "off".
	Policy string `json:"policy,omitempty"`
	// Degree is the replication degree (default 2).
	Degree int `json:"degree,omitempty"`
	// Placement is the checkpoint-copy placement policy: "ring" (default),
	// "affinity", or "spread".
	Placement string `json:"placement,omitempty"`
}

// Event is one element of the schedule. Exactly one member must be set.
type Event struct {
	Kill     *KillSpec   `json:"kill,omitempty"`
	Jitter   *JitterSpec `json:"jitter,omitempty"`
	Notify   *NotifySpec `json:"notify,omitempty"`
	SlowHost *SlowSpec   `json:"slow_host,omitempty"`
}

// KillSpec schedules one failure injection. Exactly one trigger —
// at_step, at_modeled_sec, or on_recovery_of — must be set.
type KillSpec struct {
	// Rank is the victim.
	Rank int `json:"rank"`
	// AtStep fires when the victim's application reaches that step.
	AtStep int64 `json:"at_step,omitempty"`
	// AtModeledSec fires once the cluster's modeled clock passes that
	// instant (checked at application step boundaries).
	AtModeledSec float64 `json:"at_modeled_sec,omitempty"`
	// OnRecoveryOf fires the moment that rank's replacement process is
	// spawned — a failure injected mid-recovery. Equal to Rank, it
	// re-kills the recovering process itself.
	OnRecoveryOf *int `json:"on_recovery_of,omitempty"`
	// OnRecoveryCount narrows an on_recovery_of trigger to the k-th
	// respawn of that rank (1 = first); 0 targets the first respawn
	// observed. Distinct counts chain deterministic re-kills of
	// successive replacements (a flapping workstation).
	OnRecoveryCount int `json:"on_recovery_count,omitempty"`
}

// JitterSpec adds seeded uniform [0, us) per-message delay jitter.
type JitterSpec struct {
	US float64 `json:"us"`
}

// NotifySpec drops and/or duplicates exit notifications (seeded).
type NotifySpec struct {
	Drop bool `json:"drop,omitempty"`
	Dup  bool `json:"dup,omitempty"`
}

// SlowSpec scales one rank's modeled compute cost by Factor (> 1 =
// slower workstation). Network costs are unaffected.
type SlowSpec struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
}

// Assert lists the end-state requirements. Omitted booleans default to
// true: a scenario that asserts nothing would be a no-op, so the
// zero-value Assert checks the two core guarantees (bit-identical answer,
// clean end-state invariants).
type Assert struct {
	// AnswerMatchesBaseline requires the faulted run's answer to be
	// bit-identical to a fault-free twin run (default true).
	AnswerMatchesBaseline *bool `json:"answer_matches_baseline,omitempty"`
	// Invariants requires the post-quiesce end-state checks to pass:
	// exactly one main copy per object, checkpoint coverage at least
	// min(degree, procs-1), no leaked
	// provisional state (default true).
	Invariants *bool `json:"invariants,omitempty"`
	// MaxRecoveryModeledSec bounds the faulted run's recovery time: the
	// longest complete recovery window in its trace, a replacement's first
	// event through sam.rec-done (0 = unchecked).
	MaxRecoveryModeledSec float64 `json:"max_recovery_modeled_sec,omitempty"`
	// MinKillsApplied requires at least this many kill events to have
	// taken down a live process. Omitted, it defaults to the number of
	// kill events in the schedule — a scheduled kill that silently
	// no-ops is a scenario bug, not coverage.
	MinKillsApplied *int `json:"min_kills_applied,omitempty"`
}

// boolOr resolves an optional boolean against its default.
func boolOr(p *bool, def bool) bool {
	if p == nil {
		return def
	}
	return *p
}
