package experiments

import (
	"fmt"
	"sort"
	"strings"

	"samft/internal/cluster"
	"samft/internal/sam"
)

// CheckInvariants validates the paper's end-state guarantees over a
// quiesced cluster's per-rank snapshots:
//
//   - exactly one created main copy per object name across the cluster;
//   - every non-freeable, checkpointed main copy is backed by at least
//     min(degree, n-1) up-to-date checkpoint copies on other ranks;
//   - the coverage-repair pass reported no unreparable objects
//     (InvariantSnapshot.RepairViolations);
//   - no provisional state survived: no inactive objects, pending copies,
//     staged private-state replicas, open transactions, or deferred
//     messages.
func CheckInvariants(snaps []sam.InvariantSnapshot, n, degree int) []string {
	var out []string
	type copyRec struct {
		rank, owner int
		seq         int64
	}
	want := min(degree, n-1)
	mains := make(map[uint64][]int)
	copies := make(map[uint64][]copyRec)
	for _, s := range snaps {
		for _, o := range s.Objects {
			if o.Main && o.Created {
				mains[o.Name] = append(mains[o.Name], s.Rank)
			}
			if o.CkptCopy {
				copies[o.Name] = append(copies[o.Name], copyRec{s.Rank, o.CopyOwner, o.CopySeq})
			}
			if o.Inactive {
				out = append(out, fmt.Sprintf("rank %d: object %d left inactive (uncommitted checkpoint data)", s.Rank, o.Name))
			}
			if o.PendingCopy {
				out = append(out, fmt.Sprintf("rank %d: object %d has a pending (unactivated) checkpoint copy", s.Rank, o.Name))
			}
		}
		if s.StagedPriv > 0 {
			out = append(out, fmt.Sprintf("rank %d: %d staged private-state replicas never activated", s.Rank, s.StagedPriv))
		}
		if s.OpenTx {
			out = append(out, fmt.Sprintf("rank %d: checkpoint transaction left open", s.Rank))
		}
		if s.DeferredMsgs > 0 {
			out = append(out, fmt.Sprintf("rank %d: %d messages left deferred behind a transaction", s.Rank, s.DeferredMsgs))
		}
		out = append(out, s.RepairViolations...)
	}
	for name, ranks := range mains {
		if len(ranks) > 1 {
			sort.Ints(ranks)
			out = append(out, fmt.Sprintf("object %d forked: main copies at ranks %v", name, ranks))
		}
	}
	for _, s := range snaps {
		for _, o := range s.Objects {
			if !o.Main || !o.Created || o.Freeable || o.CkptSeq == 0 {
				continue
			}
			got := 0
			for _, c := range copies[o.Name] {
				if c.rank != s.Rank && c.owner == s.Rank && c.seq >= o.CkptSeq {
					got++
				}
			}
			if got < want {
				out = append(out, fmt.Sprintf(
					"rank %d: object %d checkpoint coverage %d < %d (seq %d)", s.Rank, o.Name, got, want, o.CkptSeq))
			}
		}
	}
	sort.Strings(out)
	return out
}

// FormatKills renders a kill schedule for reports and error messages.
func FormatKills(kills []cluster.KillEvent) string {
	parts := make([]string, len(kills))
	for i, k := range kills {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}
