package ckptstore

import (
	"bytes"
	"fmt"
	"testing"

	"samft/internal/xrand"
)

func randFrame(rng *xrand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// subsets yields every way to choose `missing` shard indices out of total.
func subsets(total, missing int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == missing {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < total; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// Any m missing shards must decode byte-identically; this drives every
// possible loss pattern, not a sample.
func TestErasureRoundTripAllLossPatterns(t *testing.T) {
	rng := xrand.New(5)
	for _, p := range []ECParams{{K: 2, M: 1}, {K: 2, M: 2}, {K: 3, M: 2}, {K: 4, M: 2}, {K: 5, M: 3}} {
		for _, size := range []int{0, 1, 7, 64, 257, 1000} {
			frame := randFrame(rng, size)
			shards, err := Encode(p, frame)
			if err != nil {
				t.Fatalf("encode (%v, %d bytes): %v", p, size, err)
			}
			if len(shards) != p.shards() {
				t.Fatalf("encode (%v): %d shards, want %d", p, len(shards), p.shards())
			}
			for loss := 0; loss <= p.M; loss++ {
				for _, miss := range subsets(p.shards(), loss) {
					have := make([][]byte, len(shards))
					copy(have, shards)
					for _, i := range miss {
						have[i] = nil
					}
					got, err := Decode(p, have, len(frame))
					if err != nil {
						t.Fatalf("decode (%v, %d bytes, missing %v): %v", p, size, miss, err)
					}
					if !bytes.Equal(got, frame) {
						t.Fatalf("decode (%v, %d bytes, missing %v): frame differs", p, size, miss)
					}
				}
			}
		}
	}
}

// m+1 missing shards must fail loudly, never return a wrong frame.
func TestErasureTooManyLossesFails(t *testing.T) {
	rng := xrand.New(9)
	for _, p := range []ECParams{{K: 2, M: 1}, {K: 3, M: 2}, {K: 4, M: 2}} {
		frame := randFrame(rng, 333)
		shards, err := Encode(p, frame)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		for _, miss := range subsets(p.shards(), p.M+1) {
			have := make([][]byte, len(shards))
			copy(have, shards)
			for _, i := range miss {
				have[i] = nil
			}
			if got, err := Decode(p, have, len(frame)); err == nil {
				t.Fatalf("decode (%v, missing %v) succeeded with %d bytes; want unrecoverable error", p, miss, len(got))
			}
		}
	}
}

// The code is systematic: the first k shards concatenated (trimmed to the
// frame length) are the frame itself.
func TestErasureSystematic(t *testing.T) {
	p := ECParams{K: 3, M: 2}
	frame := randFrame(xrand.New(13), 100)
	shards, err := Encode(p, frame)
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	for i := 0; i < p.K; i++ {
		joined = append(joined, shards[i]...)
	}
	if !bytes.Equal(joined[:len(frame)], frame) {
		t.Fatal("data shards do not concatenate to the original frame")
	}
}

func TestErasureShardLengthsEqual(t *testing.T) {
	p := ECParams{K: 3, M: 2}
	shards, err := Encode(p, randFrame(xrand.New(17), 100)) // 100 = 3*34 - 2: padding needed
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if len(s) != 34 {
			t.Fatalf("shard %d length %d, want 34", i, len(s))
		}
	}
}

// Any k-row subset of the coding matrix must be invertible — the property
// every decode depends on. Exhaustive over a moderate parameter set.
func TestCodingMatrixSubsetsInvertible(t *testing.T) {
	for _, p := range []ECParams{{K: 2, M: 2}, {K: 3, M: 3}, {K: 4, M: 3}} {
		mat := codingMatrix(p.K, p.shards())
		for _, rows := range subsets(p.shards(), p.K) {
			sub := make([][]byte, p.K)
			for i, r := range rows {
				sub[i] = mat[r]
			}
			if _, err := invertMatrix(sub); err != nil {
				t.Fatalf("(%v): rows %v singular: %v", p, rows, err)
			}
		}
	}
}

func TestECParamsString(t *testing.T) {
	if s := (ECParams{}).String(); s != "off" {
		t.Errorf("zero ECParams.String() = %q, want off", s)
	}
	if s := (ECParams{K: 2, M: 1}).String(); s != "2,1" {
		t.Errorf("ECParams{2,1}.String() = %q", s)
	}
	if s := fmt.Sprint(Spread); s != "spread" {
		t.Errorf("Spread.String() = %q", s)
	}
}
