package ckptstore

import (
	"testing"

	"samft/internal/xrand"
)

// oldCheckpointRanks is the historic ft.CheckpointRanks rule, kept
// verbatim as a golden reference: the ring policy must stay bit-compatible
// with it so golden traces and seeded chaos schedules recorded before the
// ckptstore refactor still describe the same copy traffic.
func oldCheckpointRanks(name uint64, owner, n, degree int) []int {
	if n <= 1 || degree <= 0 {
		return nil
	}
	if degree > n-1 {
		degree = n - 1
	}
	out := make([]int, 0, degree)
	start := int(fnv1a(name^0x9e3779b97f4a7c15) % uint64(n))
	for i := 0; len(out) < degree && i < n; i++ {
		r := (start + i) % n
		if r == owner {
			continue
		}
		out = append(out, r)
	}
	return out
}

func TestRingBitCompatible(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(15)
		owner := rng.Intn(n)
		degree := 1 + rng.Intn(n)
		name := rng.Uint64()
		got := New(Ring, View{N: n}).Holders(name, owner, degree)
		want := oldCheckpointRanks(name, owner, n, degree)
		if len(got) != len(want) {
			t.Fatalf("ring(%d, owner %d, n %d, deg %d) = %v, old rule %v", name, owner, n, degree, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ring(%d, owner %d, n %d, deg %d) = %v, old rule %v", name, owner, n, degree, got, want)
			}
		}
	}
}

func allPolicies(view View) []Placement {
	return []Placement{New(Ring, view), New(Affinity, view), New(Spread, view)}
}

// Every policy must return distinct non-owner ranks, at most
// min(degree, n-1) of them, and exactly that many when possible.
func TestPlacementProperties(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(15)
		owner := rng.Intn(n)
		degree := 1 + rng.Intn(n)
		name := rng.Uint64()
		var cached []int
		for r := 0; r < n; r++ {
			if rng.Intn(3) == 0 {
				cached = append(cached, r)
			}
		}
		view := View{N: n, CachedAt: func(uint64) []int { return cached }}
		for _, p := range allPolicies(view) {
			hs := p.Holders(name, owner, degree)
			want := degree
			if n-1 < want {
				want = n - 1
			}
			if len(hs) != want {
				t.Fatalf("%v: got %d holders, want %d (n %d, degree %d)", p.Kind(), len(hs), want, n, degree)
			}
			seen := make(map[int]bool)
			for _, h := range hs {
				if h == owner {
					t.Fatalf("%v: placed a copy on the owner %d: %v", p.Kind(), owner, hs)
				}
				if h < 0 || h >= n {
					t.Fatalf("%v: rank %d out of range [0,%d)", p.Kind(), h, n)
				}
				if seen[h] {
					t.Fatalf("%v: duplicate holder %d in %v", p.Kind(), h, hs)
				}
				seen[h] = true
			}
		}
	}
}

// Placement must be a deterministic function of its inputs.
func TestPlacementDeterministic(t *testing.T) {
	view := View{N: 7, CachedAt: func(name uint64) []int { return []int{int(name % 7), int(name % 5)} }}
	rng := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		name := rng.Uint64()
		owner := rng.Intn(7)
		for _, p := range allPolicies(view) {
			a := p.Holders(name, owner, 3)
			b := p.Holders(name, owner, 3)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v: holders not deterministic: %v vs %v", p.Kind(), a, b)
				}
			}
		}
	}
}

// Balance: over many random object names, the most-loaded rank must not
// carry disproportionately more copies than the least-loaded one. The ring
// and spread policies hash names, so load concentrates only if the hash is
// broken; affinity with no cache knowledge degenerates to ring.
func TestPlacementBalance(t *testing.T) {
	const n, degree, objects = 8, 2, 4000
	view := View{N: n}
	rng := xrand.New(19)
	names := make([]uint64, objects)
	owners := make([]int, objects)
	for i := range names {
		names[i] = rng.Uint64()
		owners[i] = rng.Intn(n)
	}
	for _, p := range allPolicies(view) {
		load := make([]int, n)
		for i, name := range names {
			for _, h := range p.Holders(name, owners[i], degree) {
				load[h]++
			}
		}
		min, max := load[0], load[0]
		for _, l := range load {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if min == 0 || float64(max)/float64(min) > 1.5 {
			t.Errorf("%v: unbalanced load %v (max/min %.2f > 1.5)", p.Kind(), load, float64(max)/float64(min))
		}
	}
}

// Affinity must prefer cached ranks (minus the owner) before falling back
// to ring order, and fall back cleanly when nothing is cached.
func TestAffinityPrefersCachedRanks(t *testing.T) {
	cached := map[uint64][]int{42: {3, 1, 5}}
	view := View{N: 6, CachedAt: func(name uint64) []int { return cached[name] }}
	p := New(Affinity, view)

	hs := p.Holders(42, 1, 2) // rank 1 is the owner and must be skipped
	if len(hs) != 2 || hs[0] != 3 || hs[1] != 5 {
		t.Fatalf("affinity holders = %v, want [3 5]", hs)
	}
	hs = p.Holders(42, 0, 4) // 2 cached + 2 ring fill
	if len(hs) != 4 || hs[0] != 1 || hs[1] != 3 {
		t.Fatalf("affinity holders = %v, want cached ranks 1,3 first", hs)
	}
	// No cache knowledge: identical to ring.
	got := p.Holders(7, 2, 3)
	want := New(Ring, view).Holders(7, 2, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("affinity without cache = %v, want ring %v", got, want)
		}
	}
}

// Spread placements of different objects must be largely independent: two
// objects owned by the same rank should not systematically share holder
// pairs the way ring's shifted window makes adjacent ranks correlated.
func TestSpreadDecorrelatesPairs(t *testing.T) {
	const n, degree, objects = 8, 2, 3000
	p := New(Spread, View{N: n})
	pairs := make(map[[2]int]int)
	rng := xrand.New(23)
	for i := 0; i < objects; i++ {
		hs := p.Holders(rng.Uint64(), 0, degree)
		key := [2]int{hs[0], hs[1]}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		pairs[key]++
	}
	// 7 non-owner ranks -> 21 unordered pairs; uniform share ~ objects/21.
	for pair, count := range pairs {
		if float64(count) > 3*float64(objects)/21 {
			t.Errorf("spread: holder pair %v carries %d/%d objects (> 3x uniform)", pair, count, objects)
		}
	}
	if len(pairs) < 15 {
		t.Errorf("spread: only %d distinct holder pairs used, want near 21", len(pairs))
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Ring, false}, {"ring", Ring, false}, {"affinity", Ring, true},
		{"spread", Spread, false}, {"raid", Ring, true},
	} {
		got, err := ParseKind(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}
