package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// TestPackAllocs pins the allocation contract stated on Pack: once a type
// has been packed, Pack allocates exactly the frame it returns, for a flat
// struct and for a cyclic pointer graph alike.
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
		pack() // warm-up: compile the plan, grow the pooled buffer
		if n := testing.AllocsPerRun(100, pack); n != 1 {
			t.Errorf("%s: Pack made %.1f allocs per run, want 1 (the frame)", c.name, n)
		}
	}
}

// TestAppendPackAllocs pins AppendPack's contract: once a type has been
// packed, appending its frame to a buffer with room allocates nothing, for
// a flat struct and a cyclic pointer graph alike; appending a fixed-size
// type's frame to a buffer without room allocates exactly once; and a
// large frame grows an empty buffer by doubling.
func TestAppendPackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under the race detector")
	}
	var small interface{} = benchSmall{ID: 7, Pos: vec3{1, 2, 3}, Vel: vec3{-0.5, 0.25, 0}, Mass: 18.015}
	for _, c := range []struct {
		name string
		v    interface{}
	}{
		{"small", small},
		{"graph", benchGraph()},
	} {
		frame, err := Pack(c.v) // warm-up: compile the plan, pool an encoder
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, len(frame))
		appendInPlace := func() {
			if buf, err = AppendPack(buf[:0], c.v); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, appendInPlace); n != 0 {
			t.Errorf("%s: AppendPack into a buffer with room made %.1f allocs per run, want 0", c.name, n)
		}
		if string(buf) != string(frame) {
			t.Errorf("%s: AppendPack wrote %x, want %x", c.name, buf, frame)
		}
	}
	short := make([]byte, 0, 8)
	appendShort := func() {
		if _, err := AppendPack(short, small); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, appendShort); n != 1 {
		t.Errorf("AppendPack into a short buffer made %.1f allocs per run, want 1 (the grown buffer)", n)
	}

	// Doubling takes at most log2(size) allocations from empty; append's
	// 1.25× growth of large slices takes more and allocates 5× the frame.
	var big interface{} = molecule{ID: 7, Bonds: make([]int, 8000), Raw: make([]byte, 100)}
	frame, err := Pack(big)
	if err != nil {
		t.Fatal(err)
	}
	appendEmpty := func() {
		if _, err := AppendPack(nil, big); err != nil {
			t.Fatal(err)
		}
	}
	if n, most := testing.AllocsPerRun(20, appendEmpty), float64(bits.Len(uint(len(frame)))); n > most {
		t.Errorf("AppendPack of a %d-byte frame into an empty buffer made %.1f allocs per run, want at most %.0f", len(frame), n, most)
	}
}

// TestUnpackAllocs pins Unpack's contract: once a type has been unpacked,
// a frame of a flat struct costs one allocation, the value (the type name
// is looked up in the frame's bytes, not copied out of them). UnpackInto
// into a value whose slices have room allocates nothing.
func TestUnpackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled decoders at random under the race detector")
	}
	frame, err := Pack(benchSmall{ID: 7, Pos: vec3{1, 2, 3}, Mass: 18.015})
	if err != nil {
		t.Fatal(err)
	}
	unpack := func() {
		if _, err := Unpack(frame); err != nil {
			t.Fatal(err)
		}
	}
	unpack() // warm-up: pool a decoder
	if n := testing.AllocsPerRun(100, unpack); n != 1 {
		t.Errorf("Unpack made %.1f allocs per run, want 1 (the value)", n)
	}

	frame, err = Pack(molecule{ID: 7, Bonds: []int{3, 1, 4}, Raw: []byte("raw"), Grid: [4]int32{9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	var dst molecule
	into := func() {
		if err := UnpackInto(frame, &dst); err != nil {
			t.Fatal(err)
		}
	}
	into() // warm-up: grow dst's slices
	if n := testing.AllocsPerRun(100, into); n != 0 {
		t.Errorf("UnpackInto into a value with room made %.1f allocs per run, want 0", n)
	}
}

// FuzzUnpack feeds Unpack hostile frames. With reseal set the checksum is
// recomputed first, so the bytes reach the decoding plans instead of
// stopping at Verify. Unpack must never panic, and a value it accepts must
// Pack again. UnpackInto decodes every accepted frame into one destination
// per type, reused across inputs, and must give the fresh value's frame
// (frames are compared, not values: a NaN is not DeepEqual to itself); it
// must reject what Unpack rejects. The seeds are a packed frame of every
// type the package's tests register and can pack, including a cyclic
// pointer graph.
func FuzzUnpack(f *testing.F) {
	shared := &treeNode{Val: 99}
	for _, v := range []interface{}{
		scalars{B: true, I: -3, U16: 7, F64: 1.5, S: "s"},
		molecule{ID: 7, Pos: vec3{1, 2, 3}, Bonds: []int{3, 1, 4}, Raw: []byte("raw"), Grid: [4]int32{9, 8, 7, 6}},
		benchGraph(),
		&treeNode{Val: 1, Children: []*treeNode{shared, shared}},
		vec3{1, 2, 3},
		&vec3{4, 5, 6}, // a rooted frame of a flat struct
		benchSmall{ID: 7, Mass: 18.015},
	} {
		b, err := Pack(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
		f.Add(b, true)
	}
	reused := map[reflect.Type]reflect.Value{}
	f.Fuzz(func(t *testing.T, frame []byte, reseal bool) {
		if reseal && len(frame) >= 6 {
			frame = slices.Clone(frame)
			binary.BigEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
		}
		v, err := Unpack(frame)
		if err != nil {
			for _, dst := range reused {
				if UnpackInto(frame, dst.Interface()) == nil {
					t.Fatalf("UnpackInto into a %v accepted a frame Unpack rejects (%v)", dst.Type(), err)
				}
			}
			return
		}
		fresh, err := Pack(v)
		if err != nil {
			t.Fatalf("Unpack accepted a frame as %T that does not Pack again: %v", v, err)
		}
		ty := reflect.TypeOf(v)
		dst, ok := reused[ty]
		if !ok {
			dst = reflect.New(ty.Elem())
			reused[ty] = dst
		}
		if err := UnpackInto(frame, dst.Interface()); err != nil {
			t.Fatalf("UnpackInto rejected a frame Unpack accepts: %v", err)
		}
		if got, err := Pack(dst.Interface()); err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("UnpackInto into a reused %v packs to %x (%v), a fresh Unpack to %x", ty, got, err, fresh)
		}
	})
}
