package sam

// Glue between the SAM runtime and the internal/ckptstore subsystem: the
// ledger record rebuilt from recovery contributions, and the proactive
// coverage-repair pass that re-replicates checkpoint copies destroyed by
// failures (instead of letting redundancy decay until the next checkpoint
// refreshes it, as the paper's fixed placement did).

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// ckptImage returns the committed checkpoint frame of an owned object for
// out-of-transaction re-replication: the frozen accumulator image, or a
// repack of a clean value (values are immutable, so the current contents
// equal the checkpointed image). nil when no covered image exists.
func (p *Proc) ckptImage(o *object) []byte {
	body := o.committed.body
	if body == nil && !o.dirty && o.kind == ft.KindValue {
		if b, err := codec.Pack(o.data); err == nil {
			body = b
		}
	}
	return body
}

// noteRecoverContrib records who contributed which image (newest per
// sender) so the rebuilt ledger reflects the holders that actually exist.
func (p *Proc) noteRecoverContrib(img *image) {
	if img.sender == p.cfg.Rank {
		return
	}
	m := p.inc.recoverContrib[img.name]
	if m == nil {
		m = make(map[int]*image)
		p.inc.recoverContrib[img.name] = m
	}
	if prev := m[img.sender]; prev == nil || img.seq >= prev.seq {
		m[img.sender] = img
	}
}

// takeRecoverHolders consumes the recorded contributors for name whose
// copies match the installed checkpoint seq, in rank order.
func (p *Proc) takeRecoverHolders(name Name, seq int64) []int {
	m := p.inc.recoverContrib[name]
	delete(p.inc.recoverContrib, name)
	var out []int
	for _, r := range sortedKeys(m) {
		if m[r].seq == seq {
			out = append(out, r)
		}
	}
	return out
}

// repairCoverage drains the repair queue: for every owned object whose
// ledgered coverage fell below the store's target (holders died) or was
// just rebuilt from recovery contributions, it re-replicates the missing
// copies out-of-transaction (Piece -1: committed on arrival,
// like the historic post-failure re-supply). Ranks that are dead and not
// yet replaced are skipped; DropRank re-queues the object when the
// replacement incarnation installs, so repair converges once the cluster
// is whole. While a checkpoint transaction is open the pass defers
// entirely (the queue is kept): the transaction's own pieces are re-sent
// to replacement incarnations and its images are not yet committed, so
// repairing mid-transaction would replicate provisional state — commitTx
// drains the queue instead. After planning, if no dead ranks remain and
// coverage is still short, the shortfall is recorded as an invariant
// violation for the chaos harness.
func (p *Proc) repairCoverage() {
	if !p.ftEnabled() || p.restoring() || p.tx != nil || len(p.repairPending) == 0 {
		return
	}
	repaired := 0
	for _, name := range sortedKeys(p.repairPending) {
		delete(p.repairPending, name)
		o := p.objs[name]
		entry, ok := p.store.Lookup(uint64(name))
		if o == nil || !o.isMain || !o.created || o.state != stPresent || !ok || o.committed.seq == 0 || entry.Seq != o.committed.seq {
			continue // freed, migrated away, still provisional, or re-checkpointed since
		}
		plan := p.store.RepairPlan(uint64(name), p.cfg.Rank, func(r int) bool {
			_, dead := p.deadRanks[r]
			return dead
		})
		if len(plan) > 0 {
			if body := p.ckptImage(o); body != nil {
				p.sendCkptCopies(o, body, plan, p.cfg.Rank, nil)
				repaired++
			}
		}
		if len(p.deadRanks) == 0 && !o.freeable && p.store.Coverage(uint64(name)) < p.store.Want() {
			p.repairViolations = append(p.repairViolations, fmt.Sprintf(
				"rank %d: object %v coverage %d < %d after repair (seq %d)",
				p.cfg.Rank, name, p.store.Coverage(uint64(name)), p.store.Want(), o.committed.seq))
		}
	}
	if repaired > 0 && p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamRepairDone, Aux: int64(repaired)})
	}
}

// sendCkptCopies is the one place a checkpoint copy leaves its owner: it
// sends body — o's committed image — to each holder. While startTx plans a
// transaction the copies join tx as pieces, inactive when the contents are
// nonreproducible, and the caller ledgers them, unless o is changing hands
// and the copies name owner, the migration target, which ledgers them
// itself. With tx nil they repair the committed image: sent now, committed
// on arrival, ledgered here as they go.
func (p *Proc) sendCkptCopies(o *object, body []byte, holders []int, owner int, tx *ckptTx) {
	for _, r := range holders {
		img := o.committed
		img.owner, img.body = owner, body
		w := img.wire(kCkptCopy)
		if tx != nil {
			w.Inactive = o.nonrepro
			p.st.ReplicaObjects.Add(1)
			p.st.ReplicaBytes.Add(int64(len(w.Body)))
			tx.add(r, &w)
			continue
		}
		if p.rec != nil {
			p.emit(trace.Event{
				Kind: trace.SamRepairSend, Name: uint64(o.name), Dst: int64(r),
				Bytes: len(w.Body), Aux: img.seq,
			})
		}
		p.st.RepairObjects.Add(1)
		p.st.RepairBytes.Add(int64(len(w.Body)))
		p.send(r, &w)
		p.store.AddHolder(uint64(o.name), img.seq, r)
	}
}
