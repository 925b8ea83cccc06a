package codec

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// Test types modeled on the kinds of shared objects SAM applications
// declare: flat structs, nested aggregates, and pointer-linked trees.

type scalars struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	S   string
}

type vec3 struct{ X, Y, Z float64 }

type molecule struct {
	ID    int
	Pos   vec3
	Vel   vec3
	Bonds []int
	Raw   []byte
	Grid  [4]int32
}

// tree is a pointer-linked object that is not recursive: a root points at
// branches, a branch at leaves. leaf is reached along two paths (a
// branch's Leaves and the root's Spare), which Register accepts.
type (
	leaf   struct{ Val int }
	branch struct {
		Val    int
		Leaves []*leaf
	}
	tree struct {
		Val      int
		Branches []*branch
		Spare    *leaf
	}
)

func init() {
	Register("scalars", scalars{})
	Register("molecule", molecule{})
	Register("tree", tree{})
	Register("vec3", vec3{})
}

func roundTrip(t *testing.T, v interface{}) interface{} {
	t.Helper()
	b, err := Pack(v)
	if err != nil {
		t.Fatalf("Pack(%T): %v", v, err)
	}
	out, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack(%T): %v", v, err)
	}
	return out
}

func TestScalarsRoundTrip(t *testing.T) {
	in := scalars{
		B: true, I: -42, I8: -8, I16: -1600, I32: 1 << 30, I64: -(1 << 60),
		U: 42, U8: 255, U16: 65535, U32: 1 << 31, U64: 1 << 63,
		F32: 3.5, F64: math.Pi, S: "liquid water",
	}
	got := roundTrip(t, in).(*scalars)
	if *got != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, in)
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	in := molecule{
		ID:    7,
		Pos:   vec3{1, 2, 3},
		Vel:   vec3{-0.5, 0.25, 0},
		Bonds: []int{3, 1, 4, 1, 5},
		Raw:   []byte{0, 1, 2, 255},
		Grid:  [4]int32{9, 8, 7, 6},
	}
	got := roundTrip(t, in).(*molecule)
	if !reflect.DeepEqual(*got, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, in)
	}
}

func TestPointerArgumentAccepted(t *testing.T) {
	in := &vec3{4, 5, 6}
	got := roundTrip(t, in).(*vec3)
	if *got != *in {
		t.Fatalf("got %+v", got)
	}
}

func TestNilSliceVsEmptySlice(t *testing.T) {
	in := molecule{Bonds: nil}
	got := roundTrip(t, in).(*molecule)
	if got.Bonds != nil {
		t.Fatal("nil slice became non-nil")
	}
	in = molecule{Bonds: []int{}}
	got = roundTrip(t, in).(*molecule)
	if got.Bonds == nil || len(got.Bonds) != 0 {
		t.Fatal("empty slice not preserved")
	}
}

// TestNestedPointersRoundTrip: a pointer below the top level, nil or not,
// at every depth of a tree, decodes to the same value through Unpack and
// through UnpackInto, whether the destination held nil or a pointee there.
func TestNestedPointersRoundTrip(t *testing.T) {
	for _, in := range []*tree{
		{Val: 1},
		{Val: 2, Spare: &leaf{Val: 3}},
		{Val: 4, Branches: []*branch{nil, {Val: 5}, {Val: 6, Leaves: []*leaf{{Val: 7}, nil}}}},
		benchTree(),
	} {
		if got := roundTrip(t, in).(*tree); !reflect.DeepEqual(got, in) {
			t.Errorf("Unpack gave %+v, want %+v", got, in)
		}
		frame, err := Pack(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, held := range []*tree{new(tree), benchTree()} {
			if err := UnpackInto(frame, held); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(held, in) {
				t.Errorf("UnpackInto gave %+v, want %+v", held, in)
			}
		}
	}
}

// TestSharedPointeeDecodesAsCopies: pointers are encoded as trees, so a
// pointee reached twice is written twice and decodes as two equal,
// distinct values.
func TestSharedPointeeDecodesAsCopies(t *testing.T) {
	shared := &leaf{Val: 99}
	in := tree{Branches: []*branch{{Leaves: []*leaf{shared, shared}}}, Spare: shared}
	got := roundTrip(t, in).(*tree)
	a, b, c := got.Branches[0].Leaves[0], got.Branches[0].Leaves[1], got.Spare
	if *a != *shared || *b != *shared || *c != *shared {
		t.Fatalf("shared pointee decoded as %+v, %+v, %+v; want %+v each", *a, *b, *c, *shared)
	}
	if a == b || a == c || b == c {
		t.Fatal("a shared pointee decoded as one value")
	}
	plain, err := Pack(tree{Branches: []*branch{{Leaves: []*leaf{{Val: 99}, {Val: 99}}}}, Spare: &leaf{Val: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if frame, err := Pack(in); err != nil || string(frame) != string(plain) {
		t.Errorf("a shared pointee packs to %x (%v), distinct equal ones to %x", frame, err, plain)
	}
}

// Types the codec cannot encode whole. They are registered only inside the
// tests below, which expect Register to refuse them.
type (
	// Leaky has a private field a frame would drop.
	Leaky struct {
		A      int64
		hidden int64
	}
	// Nested reaches Leaky's private field one level down.
	Nested struct{ Inner Leaky }
	// viaPtr reaches Leaky's private field through a pointer.
	viaPtr struct{ P *Leaky }
	// list reaches itself through a pointer.
	list struct {
		V    int
		Next *list
	}
	// branchy reaches itself through a slice.
	branchy struct{ Kids []branchy }
	// outer reaches itself through a pointer in a field of another type.
	outer   struct{ In inner }
	inner   struct{ Back *outer }
	withMap struct {
		ID   int
		Tags map[string]float64
	}
	withComplex struct {
		ID int
		Z  complex128
	}
)

// mustRefuse registers v under name and checks that Register panics with a
// message containing want and leaves the type unregistered.
func mustRefuse(t *testing.T, name string, v interface{}, want string) {
	t.Helper()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("Register(%q) panicked with %q, want a message containing %q", name, msg, want)
			}
		}()
		Register(name, v)
	}()
	if _, err := Pack(v); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("Pack(%T) after a refused Register: %v, want ErrNotRegistered", v, err)
	}
}

// TestRegisterRefusesUnexportedFields: a frame never drops state, so a type
// whose field graph reaches an unexported field is refused at Register,
// which names the path to the field.
func TestRegisterRefusesUnexportedFields(t *testing.T) {
	mustRefuse(t, "Leaky", Leaky{}, "Leaky.hidden is unexported")
	mustRefuse(t, "Nested", &Nested{}, "Nested.Inner.hidden is unexported")
	mustRefuse(t, "viaPtr", viaPtr{}, "viaPtr.P.hidden is unexported")
}

// TestRegisterRefusesRecursiveTypes: pointers are encoded as trees, so a
// type that reaches itself through a pointer or a slice, whose values
// could be cyclic, is refused at Register, which names the path on which
// the type recurs.
func TestRegisterRefusesRecursiveTypes(t *testing.T) {
	mustRefuse(t, "list", list{}, "list.Next: cannot encode recursive type codec.list")
	mustRefuse(t, "branchy", &branchy{}, "branchy.Kids[]: cannot encode recursive type codec.branchy")
	mustRefuse(t, "outer", outer{}, "outer.In.Back: cannot encode recursive type codec.outer")
	mustRefuse(t, "inner", inner{}, "inner.Back.In: cannot encode recursive type codec.inner")
}

// TestUnencodableKindsFail pins the codec's boundary: a type with a map or
// complex field is refused at Register, which names the field and its kind.
func TestUnencodableKindsFail(t *testing.T) {
	mustRefuse(t, "withMap", withMap{}, "withMap.Tags: cannot encode kind map")
	mustRefuse(t, "withComplex", withComplex{}, "withComplex.Z: cannot encode kind complex128")
	mustRefuse(t, "mapSlice", []map[int]int{}, "[]map[int]int[]: cannot encode kind map")
}

func TestUnregisteredType(t *testing.T) {
	type anon struct{ X int }
	if _, err := Pack(anon{1}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("Pack of an unregistered type: %v, want ErrNotRegistered", err)
	}
	if _, err := DeepCopy(anon{1}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("DeepCopy of an unregistered type: %v, want ErrNotRegistered", err)
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on conflicting registration")
		}
	}()
	Register("scalars", molecule{})
}

func TestRegisterIdempotent(t *testing.T) {
	Register("scalars", scalars{})
	Register("scalars", &scalars{}) // pointer form is the same element type
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b, err := Pack(vec3{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, len(b) / 2, len(b) - 5} {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, err := Unpack(c); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}

func TestUnpackShortFrame(t *testing.T) {
	for n := 0; n < 6; n++ {
		if _, err := Unpack(make([]byte, n)); err == nil {
			t.Fatalf("accepted %d-byte frame", n)
		}
	}
}

func TestUnpackTruncated(t *testing.T) {
	b, err := Pack(molecule{Bonds: []int{1, 2, 3}, Raw: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	for n := 6; n < len(b); n++ {
		if _, err := Unpack(b[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
}

// TestUnpackIntoReusesTheDestination: decoding into a value that held
// another value of the same type gives what a fresh Unpack gives — over
// longer and shorter slices, nil and empty ones, scalars, and a pointer
// tree — while a slice with room keeps its backing array and the pointees
// the destination held are never written through.
func TestUnpackIntoReusesTheDestination(t *testing.T) {
	oldLeaf := &leaf{Val: -1}
	for _, c := range []struct {
		name      string
		held, src interface{}
	}{
		{"longer to shorter", &molecule{ID: 1, Bonds: []int{1, 2, 3, 4, 5}, Raw: []byte("abcdef"), Grid: [4]int32{1}},
			&molecule{ID: 2, Bonds: []int{9, 8}, Raw: []byte("xy"), Grid: [4]int32{5, 6}}},
		{"shorter to longer", &molecule{Bonds: []int{1}, Raw: []byte("a")},
			&molecule{Bonds: []int{4, 5, 6, 7}, Raw: []byte("wxyz")}},
		{"full to nil", &molecule{Bonds: []int{1, 2}, Raw: []byte("a")}, &molecule{}},
		{"full to empty", &molecule{Bonds: []int{1, 2}, Raw: []byte("a")}, &molecule{Bonds: []int{}, Raw: []byte{}}},
		{"nil to empty", &molecule{}, &molecule{Bonds: []int{}, Raw: []byte{}}},
		{"scalars", &scalars{S: "held", I: 3}, &scalars{S: "sent", F64: 2.5}},
		{"pointer tree", &tree{Val: 1, Branches: []*branch{{Leaves: []*leaf{oldLeaf, oldLeaf}}}, Spare: oldLeaf},
			&tree{Val: 2, Branches: []*branch{{Val: 3, Leaves: []*leaf{{Val: 7}}}}, Spare: &leaf{Val: 8}}},
	} {
		frame, err := Pack(c.src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Unpack(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := UnpackInto(frame, c.held); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(c.held, want) {
			t.Errorf("%s: UnpackInto gave %+v, a fresh Unpack %+v", c.name, c.held, want)
		}
	}
	if oldLeaf.Val != -1 {
		t.Errorf("UnpackInto wrote through a pointee the destination held: %+v", oldLeaf)
	}

	// A slice with room keeps its backing array.
	held := &molecule{Bonds: make([]int, 8), Raw: make([]byte, 8)}
	bonds, raw := &held.Bonds[:1][0], &held.Raw[:1][0]
	frame, err := Pack(molecule{Bonds: []int{1, 2, 3}, Raw: []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(frame, held); err != nil {
		t.Fatal(err)
	}
	if &held.Bonds[0] != bonds || &held.Raw[0] != raw {
		t.Error("UnpackInto replaced a backing array that had room")
	}
}

// TestUnpackIntoRefusesAnotherType: a frame decodes only into a value of
// its own registered type, and only through a pointer.
func TestUnpackIntoRefusesAnotherType(t *testing.T) {
	frame, err := Pack(vec3{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var m molecule
	if err := UnpackInto(frame, &m); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a vec3 frame into a molecule: err = %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(m, molecule{}) {
		t.Errorf("the refused destination was written: %+v", m)
	}
	var v vec3
	if err := UnpackInto(frame, v); err == nil {
		t.Error("UnpackInto into a non-pointer succeeded")
	}
	if err := UnpackInto(frame, (*vec3)(nil)); err == nil {
		t.Error("UnpackInto into a nil pointer succeeded")
	}
	if err := UnpackInto(frame, &v); err != nil || v != (vec3{1, 2, 3}) {
		t.Errorf("UnpackInto(&vec3) = %v, %+v", err, v)
	}
}

// TestFrameTypeNamesTheDestination: FrameType reads the registered type
// off a frame's header, the type UnpackInto can decode it into, and
// refuses a header that is not a frame of a registered type.
func TestFrameTypeNamesTheDestination(t *testing.T) {
	frame, err := Pack(&vec3{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := FrameType(frame); err != nil || got != reflect.TypeOf(vec3{}) {
		t.Errorf("FrameType = %v, %v; want vec3", got, err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xff
	if _, err := FrameType(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	if _, err := FrameType(frame[:3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short header: err = %v, want ErrCorrupt", err)
	}
	unknown := append([]byte(nil), frame...)
	unknown[6] = 'w' // the type name's first byte: "wec3"
	if _, err := FrameType(unknown); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered name: err = %v, want ErrNotRegistered", err)
	}
}

func TestDeepCopyIsolation(t *testing.T) {
	in := &molecule{Bonds: []int{1, 2}}
	cp, err := DeepCopy(in)
	if err != nil {
		t.Fatal(err)
	}
	got := cp.(*molecule)
	got.Bonds[0] = 99
	if in.Bonds[0] != 1 {
		t.Fatal("DeepCopy aliases the original")
	}
}

// TestAppendPackMatchesPack: AppendPack appends exactly the frame Pack
// returns (its checksum covers the frame, not what dst held before), leaves
// the prefix alone, and keeps dst's length when v cannot be packed.
func TestAppendPackMatchesPack(t *testing.T) {
	prefix := []byte("held")
	for _, v := range []interface{}{
		vec3{1, 2, 3},
		molecule{ID: 7, Bonds: []int{3, 1, 4}, Raw: []byte("raw")},
		benchTree(),
	} {
		want, err := Pack(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPack(append([]byte(nil), prefix...), v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != string(want) {
			t.Fatalf("%T: AppendPack gave %x, want %x after the prefix", v, got, want)
		}
		if _, err := Unpack(got[len(prefix):]); err != nil {
			t.Fatalf("%T: the appended frame does not unpack: %v", v, err)
		}
	}
	type unreg struct{ X int }
	dst := make([]byte, 2, 64)
	got, err := AppendPack(dst, unreg{})
	if !errors.Is(err, ErrNotRegistered) || len(got) != 2 {
		t.Fatalf("AppendPack(unregistered) = %d bytes, %v; want 2 bytes, ErrNotRegistered", len(got), err)
	}
}

// TestPlanForConcurrentFirstUse: callers racing to compile the plan of a
// type not yet cached all get the one plan that was stored first.
func TestPlanForConcurrentFirstUse(t *testing.T) {
	type fresh struct {
		Spare *leaf
		Grid  [2][]vec3
	}
	ty := reflect.TypeOf(fresh{})
	plans := make([]*plan, 4)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = planFor(ty)
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Errorf("caller %d got plan %p, caller 0 %p", i, p, plans[0])
		}
	}
}

func TestTypeName(t *testing.T) {
	if got := typeName(vec3{}); got != "vec3" {
		t.Fatalf("typeName = %q", got)
	}
	if got := typeName(&vec3{}); got != "vec3" {
		t.Fatalf("typeName(ptr) = %q", got)
	}
	type anon struct{ Y int }
	if got := typeName(anon{}); got != "" {
		t.Fatalf("typeName(unregistered) = %q", got)
	}
}

// Property-based tests: random values of registered types must survive a
// round trip exactly.

func TestQuickScalars(t *testing.T) {
	f := func(in scalars) bool {
		got := roundTrip(t, in).(*scalars)
		return *got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMolecule(t *testing.T) {
	f := func(id int, pos, vel vec3, bonds []int, raw []byte) bool {
		in := molecule{ID: id, Pos: pos, Vel: vel, Bonds: bonds, Raw: raw}
		got := roundTrip(t, in).(*molecule)
		return reflect.DeepEqual(*got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnpackGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		// Unpack must reject or accept, never panic.
		_, _ = Unpack(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
