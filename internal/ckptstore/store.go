package ckptstore

// The Store is one process's view of its own objects' checkpoint copies:
// a coverage ledger mapping object name -> (checkpoint sequence, holder
// ranks). The paper never needed this record because its placement is a
// pure function of the name — anybody can recompute where copies *should*
// be. But failures destroy copies, and with no record of what was lost,
// redundancy silently decays until the next checkpoint happens to refresh
// it.
//
// The ledger is owned by the object's owner, updated at checkpoint commit
// time, invalidated when a rank's incarnation is replaced (DropRank), and
// consulted to plan repair traffic (RepairPlan) that proactively restores
// full coverage.

import "slices"

// Entry is the ledger record for one object: the checkpoint sequence its
// copies were cut at and the distinct ranks holding them.
type Entry struct {
	Seq     int64
	Holders []int
}

// Config configures one process's store.
type Config struct {
	Rank   int
	N      int
	Degree int
	Policy Kind
	View   View
}

// Store is the per-process replicated checkpoint store state.
type Store struct {
	cfg    Config
	place  Placement
	ledger map[uint64]Entry
}

// NewStore builds a store.
func NewStore(cfg Config) *Store {
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	cfg.View.N = cfg.N
	return &Store{
		cfg:    cfg,
		place:  New(cfg.Policy, cfg.View),
		ledger: make(map[uint64]Entry),
	}
}

// Want returns the number of copies a fully covered object has:
// min(Degree, N-1).
func (s *Store) Want() int { return min(s.cfg.Degree, s.cfg.N-1) }

// Survivable is the number of distinct ranks that may be down at once with
// recovery still guaranteed on n ranks at the given replication degree:
// min(degree, n-1), and never less than the one failure the paper's
// protocol is built for. The scenario validator and the chaos generator's
// clamp share it.
func Survivable(n, degree int) int {
	return max(min(degree, n-1), 1)
}

// Plan returns the ranks that should receive the named object's next
// checkpoint copies, in placement order.
func (s *Store) Plan(name uint64, owner int) []int {
	return s.place.Holders(name, owner, s.Want())
}

// Record replaces the ledger entry for name: a fresh checkpoint at seq
// placed copies on holders.
func (s *Store) Record(name uint64, seq int64, holders []int) {
	s.ledger[name] = Entry{Seq: seq, Holders: append([]int(nil), holders...)}
}

// AddHolder appends one holder rank to name's entry — a repair copy
// joining an existing checkpoint. A missing or stale entry is replaced.
func (s *Store) AddHolder(name uint64, seq int64, rank int) {
	e, ok := s.ledger[name]
	if !ok || e.Seq != seq {
		s.ledger[name] = Entry{Seq: seq, Holders: []int{rank}}
		return
	}
	if slices.Contains(e.Holders, rank) {
		return
	}
	e.Holders = append(e.Holders, rank)
	s.ledger[name] = e
}

// Lookup returns the ledger entry for name.
func (s *Store) Lookup(name uint64) (Entry, bool) {
	e, ok := s.ledger[name]
	return e, ok
}

// HolderRanks returns the recorded holder ranks for name in ascending
// order — the set to notify when the object's copies become stale or the
// object is freed.
func (s *Store) HolderRanks(name uint64) []int {
	e, ok := s.ledger[name]
	if !ok {
		return nil
	}
	out := slices.Clone(e.Holders)
	slices.Sort(out)
	return out
}

// Forget drops name's ledger entry (object freed or migrated away).
func (s *Store) Forget(name uint64) {
	delete(s.ledger, name)
}

// DropRank removes rank from every entry's holder set — its incarnation
// was replaced, so whatever copies it held are gone — and returns the
// affected names in ascending order so the owner can plan repairs
// deterministically.
func (s *Store) DropRank(rank int) []uint64 {
	var affected []uint64
	for name, e := range s.ledger {
		if i := slices.Index(e.Holders, rank); i >= 0 {
			e.Holders = slices.Delete(e.Holders, i, i+1)
			s.ledger[name] = e
			affected = append(affected, name)
		}
	}
	slices.Sort(affected)
	return affected
}

// Coverage returns how many ranks the ledger records as holding a copy of
// name.
func (s *Store) Coverage(name uint64) int {
	return len(s.ledger[name].Holders)
}

// RepairPlan returns the ranks that should receive a repair copy so that
// name regains full coverage. exclude, when non-nil, vetoes candidate
// ranks the caller knows to be unusable right now (dead and not yet
// replaced). An empty plan means coverage is already full or no eligible
// ranks remain.
func (s *Store) RepairPlan(name uint64, owner int, exclude func(rank int) bool) []int {
	e, ok := s.ledger[name]
	if !ok {
		return nil
	}
	need := s.Want() - len(e.Holders)
	if need <= 0 {
		return nil
	}
	// The policy's full preference ordering, minus current holders and
	// vetoed ranks, supplies new homes in deterministic order.
	var out []int
	for _, c := range s.place.Holders(name, owner, s.cfg.N-1) {
		if len(out) == need {
			break
		}
		if slices.Contains(e.Holders, c) || (exclude != nil && exclude(c)) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Names returns every ledgered name in ascending order.
func (s *Store) Names() []uint64 {
	out := make([]uint64, 0, len(s.ledger))
	for name := range s.ledger {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
