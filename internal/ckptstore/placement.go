// Package ckptstore is the replicated in-memory checkpoint store: it owns
// where checkpoint copies of shared objects are placed, tracks which ranks
// actually hold which copies (the coverage ledger), and plans the repair
// traffic that restores full redundancy after failures instead of letting
// coverage decay until the next checkpoint.
//
// The paper places copies with a fixed shifted-ring rule computed from the
// object name, which makes placement a pure function every process can
// evaluate — but also hard-codes the policy and leaves nobody responsible
// for noticing that a failure destroyed copies. This package separates the
// two concerns: Placement answers "where should copies go", and Store's
// ledger answers "where are they now, and what is missing".
//
// Placement policies:
//
//   - ring: the paper's shifted-ring rule, bit-compatible with the historic
//     ft.CheckpointRanks so existing golden traces and seeded chaos
//     schedules are unchanged under the default;
//   - spread: rendezvous (highest-random-weight) hashing, giving each
//     object an independent pseudo-random holder set so simultaneous
//     failures of adjacent ranks do not wipe out correlated copy sets the
//     way a ring shift can.
package ckptstore

import (
	"fmt"
	"sort"
)

// Kind selects a placement policy.
type Kind int

const (
	// Ring is the paper's shifted-ring placement (the default),
	// bit-compatible with the historic ft.CheckpointRanks rule.
	Ring Kind = iota
	// Affinity prefers the ranks View.CachedAt reports. No configuration
	// selects it (ParseKind rejects it); only the benchmark's timing of
	// Store.Plan builds it.
	Affinity
	// Spread anti-affines copies via rendezvous hashing.
	Spread
)

func (k Kind) String() string {
	switch k {
	case Ring:
		return "ring"
	case Affinity:
		return "affinity"
	case Spread:
		return "spread"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a placement policy name as accepted by the
// `ftbench -placement` flag. The empty string means Ring.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "ring":
		return Ring, nil
	case "spread":
		return Spread, nil
	}
	return Ring, fmt.Errorf("unknown placement policy %q (want ring or spread)", s)
}

// View is the process-local knowledge a placement policy may consult.
type View struct {
	// N is the cluster size.
	N int
	// CachedAt, when non-nil, returns the ranks believed to hold a cached
	// frame of the named object (any order; may include the owner, which
	// policies must filter out). Only the Affinity policy consults it.
	CachedAt func(name uint64) []int
}

// Placement decides which ranks hold an object's checkpoint copies.
type Placement interface {
	Kind() Kind
	// Holders returns up to min(degree, N-1) distinct non-owner ranks in
	// placement preference order. Passing degree = N-1 yields the policy's
	// full preference ordering over all non-owner ranks, which is how the
	// Store extends a partial holder set during repair.
	Holders(name uint64, owner, degree int) []int
}

// New builds the placement policy of the given kind over a view.
func New(kind Kind, view View) Placement {
	switch kind {
	case Affinity:
		return affinity{view}
	case Spread:
		return spread{view}
	default:
		return ring{view}
	}
}

// fnv1a hashes a 64-bit name with the same constants as ft.HomeRank, kept
// as a pure arithmetic function so placement needs no imports and the ring
// policy stays bit-compatible with the historic ft.CheckpointRanks.
func fnv1a(name uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (name >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

func clampDegree(n, owner, degree int) int {
	if n-1 < degree {
		degree = n - 1
	}
	return degree
}

// ring is the paper's placement: hash the name to a start rank and walk
// the ring, skipping the owner. Bit-compatible with ft.CheckpointRanks.
type ring struct{ view View }

func (r ring) Kind() Kind { return Ring }

func (r ring) Holders(name uint64, owner, degree int) []int {
	n := r.view.N
	if n <= 1 || degree <= 0 {
		return nil
	}
	degree = clampDegree(n, owner, degree)
	out := make([]int, 0, degree)
	start := int(fnv1a(name^0x9e3779b97f4a7c15) % uint64(n))
	for i := 0; len(out) < degree && i < n; i++ {
		c := (start + i) % n
		if c == owner {
			continue
		}
		out = append(out, c)
	}
	return out
}

// affinity prefers ranks that the view reports as already caching a frame
// of the object, in ascending rank order for determinism, then falls back
// to ring order to fill the remaining slots. The cached set is the owner's
// local knowledge (which ranks it sent contents to), so two processes need
// not agree on an object's affinity placement — the coverage ledger, not
// recomputation, is the record of where copies went.
type affinity struct{ view View }

func (a affinity) Kind() Kind { return Affinity }

func (a affinity) Holders(name uint64, owner, degree int) []int {
	n := a.view.N
	if n <= 1 || degree <= 0 {
		return nil
	}
	degree = clampDegree(n, owner, degree)
	out := make([]int, 0, degree)
	used := make(map[int]bool, degree)
	if a.view.CachedAt != nil {
		cached := append([]int(nil), a.view.CachedAt(name)...)
		sort.Ints(cached)
		for _, c := range cached {
			if len(out) >= degree {
				break
			}
			if c == owner || c < 0 || c >= n || used[c] {
				continue
			}
			used[c] = true
			out = append(out, c)
		}
	}
	for _, c := range (ring{a.view}).Holders(name, owner, n-1) {
		if len(out) >= degree {
			break
		}
		if used[c] {
			continue
		}
		used[c] = true
		out = append(out, c)
	}
	return out
}

// spread ranks every non-owner candidate by a per-(name, rank) hash and
// takes the top scores: rendezvous hashing. Each object draws an
// independent holder set, so no pair of ranks is a correlated point of
// failure for many objects at once.
type spread struct{ view View }

func (s spread) Kind() Kind { return Spread }

func (s spread) Holders(name uint64, owner, degree int) []int {
	n := s.view.N
	if n <= 1 || degree <= 0 {
		return nil
	}
	degree = clampDegree(n, owner, degree)
	type scored struct {
		rank  int
		score uint64
	}
	cands := make([]scored, 0, n-1)
	for c := 0; c < n; c++ {
		if c == owner {
			continue
		}
		cands = append(cands, scored{c, fnv1a(name ^ (uint64(c)+1)*0x9e3779b97f4a7c15)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].rank < cands[j].rank
	})
	out := make([]int, 0, degree)
	for _, c := range cands[:degree] {
		out = append(out, c.rank)
	}
	return out
}
