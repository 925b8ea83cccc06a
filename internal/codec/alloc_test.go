package codec

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// TestPackAllocs pins the allocation contract stated on Pack and
// PackedSize: once a type has been packed, PackedSize allocates nothing
// and Pack allocates exactly the frame it returns, for a flat struct and
// for a cyclic pointer graph alike.
func TestPackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under the race detector")
	}
	for _, c := range []struct {
		name string
		v    interface{}
	}{
		{"small", benchSmall{ID: 7, Pos: vec3{1, 2, 3}, Vel: vec3{-0.5, 0.25, 0}, Mass: 18.015}},
		{"graph", benchGraph()},
	} {
		pack := func() {
			if _, err := Pack(c.v); err != nil {
				t.Fatal(err)
			}
		}
		size := func() {
			if _, err := PackedSize(c.v); err != nil {
				t.Fatal(err)
			}
		}
		pack() // warm-up: compile the plan, grow the pooled buffer
		if n := testing.AllocsPerRun(100, size); n != 0 {
			t.Errorf("%s: PackedSize made %.1f allocs per run, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(100, pack); n != 1 {
			t.Errorf("%s: Pack made %.1f allocs per run, want 1 (the frame)", c.name, n)
		}
	}
}

// FuzzUnpack feeds Unpack hostile frames. With reseal set the checksum is
// recomputed first, so the bytes reach the decoding plans instead of
// stopping at Verify. Unpack must never panic, and a value it accepts must
// Pack again. The seeds are a packed frame of every type the package's
// tests register and can pack, including a cyclic pointer graph.
func FuzzUnpack(f *testing.F) {
	shared := &treeNode{Val: 99}
	for _, v := range []interface{}{
		scalars{B: true, I: -3, U16: 7, F64: 1.5, S: "s"},
		molecule{ID: 7, Pos: vec3{1, 2, 3}, Bonds: []int{3, 1, 4}, Raw: []byte("raw"), Grid: [4]int32{9, 8, 7, 6}},
		benchGraph(),
		&treeNode{Val: 1, Children: []*treeNode{shared, shared}},
		withUnexported{Public: 5},
		vec3{1, 2, 3},
		benchSmall{ID: 7, Mass: 18.015},
	} {
		b, err := Pack(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
		f.Add(b, true)
	}
	f.Fuzz(func(t *testing.T, frame []byte, reseal bool) {
		if reseal && len(frame) >= 6 {
			frame = slices.Clone(frame)
			binary.BigEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
		}
		v, err := Unpack(frame)
		if err != nil {
			return
		}
		if _, err := Pack(v); err != nil {
			t.Fatalf("Unpack accepted a frame as %T that does not Pack again: %v", v, err)
		}
	})
}
