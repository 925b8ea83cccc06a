package sam

// Glue between the SAM runtime and the internal/ckptstore subsystem: the
// owner-side view feeding the affinity policy, erasure shard encode /
// reassembly, the packed ledger entries that ride kAccData migrations,
// and the proactive coverage-repair pass that re-replicates checkpoint
// copies destroyed by failures (instead of letting redundancy decay until
// the next checkpoint refreshes it, as the paper's fixed placement did).

import (
	"fmt"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// cachedRanks is the ckptstore View callback: ranks this owner has sent
// the named object's contents to. Runs on the runtime goroutine only (the
// store is runtime-goroutine state).
func (p *Proc) cachedRanks(name uint64) []int {
	if o := p.objs[Name(name)]; o != nil {
		return sortedKeys(o.sentTo)
	}
	return nil
}

// packHolders / unpackHolders encode a ledger holder set for the wire
// (kAccData migrations) as rank<<16 | shard.
func packHolders(hs []ckptstore.Holder) []int64 {
	if len(hs) == 0 {
		return nil
	}
	out := make([]int64, len(hs))
	for i, h := range hs {
		out[i] = int64(h.Rank)<<16 | int64(h.Shard&0xffff)
	}
	return out
}

func unpackHolders(packed []int64) []ckptstore.Holder {
	if len(packed) == 0 {
		return nil
	}
	out := make([]ckptstore.Holder, len(packed))
	for i, v := range packed {
		out[i] = ckptstore.Holder{Rank: int(v >> 16), Shard: int(v & 0xffff)}
	}
	return out
}

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
func (p *Proc) takeRecoverHolders(name Name, seq int64) []ckptstore.Holder {
	m := p.inc.recoverContrib[name]
	delete(p.inc.recoverContrib, name)
	var out []ckptstore.Holder
	for _, r := range sortedKeys(m) {
		if h := m[r]; h.seq == seq {
			out = append(out, ckptstore.Holder{Rank: r, Shard: h.shard})
		}
	}
	return out
}

// shardAsm accumulates the erasure shards of one object's image until k of
// them permit a decode.
type shardAsm struct {
	seq      int64
	k, m     int
	frameLen int
	shards   map[int]*image // 1-based shard index -> contribution
}

// assembleShards folds one contributed shard into the per-object assembler.
// It returns the full-frame image once k shards (all from the same checkpoint
// seq) decode, and nil while the object is still short — late duplicate
// shards after an install are dropped by the caller's recoverInstalled check,
// like full-frame duplicates.
func (p *Proc) assembleShards(img *image) *image {
	asm := p.inc.shardAsm
	a := asm[img.name]
	if a == nil || img.seq > a.seq || a.k != img.k || a.m != img.m {
		a = &shardAsm{seq: img.seq, k: img.k, m: img.m, frameLen: img.frameLen, shards: make(map[int]*image)}
		asm[img.name] = a
	} else if img.seq < a.seq {
		return nil // stale shard from an older checkpoint
	}
	if img.shard < 1 || img.shard > a.k+a.m {
		return nil
	}
	a.shards[img.shard] = img
	if len(a.shards) < a.k {
		return nil
	}
	ec := ckptstore.ECParams{K: a.k, M: a.m}
	slots := make([][]byte, ec.Shards())
	idxs := sortedKeys(a.shards)
	for _, idx := range idxs {
		slots[idx-1] = a.shards[idx].body
	}
	frame, err := ckptstore.Decode(ec, slots, a.frameLen)
	if err != nil {
		return nil // impossible with k shards of one seq; wait for more
	}
	delete(asm, img.name)
	// The decoded image is the lowest-numbered shard's (sender, owner, seq,
	// metadata — all shards of one checkpoint agree) with the whole frame.
	full := *a.shards[idxs[0]]
	full.shard, full.k, full.m, full.frameLen = 0, 0, 0, 0
	full.body = frame
	return &full
}

// repairCoverage drains the repair queue: for every owned object whose
// ledgered coverage fell below the store's target (holders died) or was
// just rebuilt from recovery contributions, it re-replicates the missing
// copies or shards out-of-transaction (Piece -1: committed on arrival,
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

// planCopies returns the holders for the named object's next checkpoint
// copies on behalf of owner, in placement order: full frames, or under
// erasure coding shard i+1 at the i-th rank.
func (p *Proc) planCopies(name Name, owner int) []ckptstore.Holder {
	ranks := p.store.Plan(uint64(name), owner)
	holders := make([]ckptstore.Holder, len(ranks))
	for i, r := range ranks {
		holders[i] = ckptstore.Holder{Rank: r}
		if p.store.EC().Enabled() {
			holders[i].Shard = i + 1
		}
	}
	return holders
}

// sendCkptCopies is the one place a checkpoint copy leaves its owner: it
// sends body — o's committed image — to each holder, whole (shard 0) or as
// that holder's Reed–Solomon shard. While startTx plans a transaction the
// copies join tx as pieces, inactive when the contents are nonreproducible,
// and the caller ledgers them under owner (the migration target when o is
// changing hands). With tx nil they repair the committed image: sent now,
// committed on arrival, ledgered here as they go.
func (p *Proc) sendCkptCopies(o *object, body []byte, holders []ckptstore.Holder, owner int, tx *ckptTx) {
	ec := p.store.EC()
	var shards [][]byte
	if ec.Enabled() {
		var err error
		if shards, err = ckptstore.Encode(ec, body); err != nil {
			panic(fmt.Errorf("sam: erasure-encode %v: %w", o.name, err))
		}
	}
	for _, h := range holders {
		img := o.committed
		img.owner, img.body = owner, body
		if h.Shard > 0 {
			img.body = shards[h.Shard-1]
			img.shard, img.k, img.m, img.frameLen = h.Shard, ec.K, ec.M, len(body)
		} else {
			o.noteSentTo(h.Rank) // the copy doubles as a cached frame there
		}
		w := img.wire(kCkptCopy)
		if tx != nil {
			w.Inactive = o.nonrepro
			p.st.ReplicaObjects.Add(1)
			p.st.ReplicaBytes.Add(int64(len(w.Body)))
			tx.add(h.Rank, w)
			continue
		}
		if p.rec != nil {
			note := ""
			if h.Shard > 0 {
				note = fmt.Sprintf("shard%d", h.Shard)
			}
			p.emit(trace.Event{
				Kind: trace.SamRepairSend, Name: uint64(o.name), Dst: int64(h.Rank),
				Bytes: len(w.Body), Aux: img.seq, Note: note,
			})
		}
		p.st.RepairObjects.Add(1)
		p.st.RepairBytes.Add(int64(len(w.Body)))
		p.send(h.Rank, w)
		p.store.AddHolder(uint64(o.name), img.seq, h)
	}
}
