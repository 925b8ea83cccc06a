package codec

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Test types modeled on the kinds of shared objects SAM applications
// declare: flat structs, nested aggregates, and linked structures.

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

type treeNode struct {
	Val      int
	Children []*treeNode
	Parent   *treeNode
}

func init() {
	Register("scalars", scalars{})
	Register("molecule", molecule{})
	Register("treeNode", treeNode{})
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

func TestSharedPointerIdentity(t *testing.T) {
	shared := &treeNode{Val: 99}
	in := treeNode{Val: 1, Children: []*treeNode{shared, shared}}
	got := roundTrip(t, in).(*treeNode)
	if got.Children[0] != got.Children[1] {
		t.Fatal("shared pointee duplicated")
	}
	if got.Children[0].Val != 99 {
		t.Fatalf("pointee value %d", got.Children[0].Val)
	}
}

func TestCyclicStructure(t *testing.T) {
	root := &treeNode{Val: 1}
	child := &treeNode{Val: 2, Parent: root}
	root.Children = []*treeNode{child}
	got := roundTrip(t, root).(*treeNode)
	if len(got.Children) != 1 || got.Children[0].Parent != got {
		t.Fatal("cycle not reconstructed")
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
	// cyclic reaches its private field through a pointer cycle.
	cyclic struct {
		Next *cyclic
		Kids []cyclic
		note string
	}
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
	mustRefuse(t, "cyclic", cyclic{}, "cyclic.note is unexported")
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
// longer and shorter slices, nil and empty ones, scalars, and a shared
// pointer graph — while a slice with room keeps its backing array and the
// pointees the destination held are never written through.
func TestUnpackIntoReusesTheDestination(t *testing.T) {
	shared := &treeNode{Val: 7}
	oldLeaf := &treeNode{Val: -1}
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
		{"shared pointer graph", &treeNode{Val: 1, Children: []*treeNode{oldLeaf, oldLeaf, oldLeaf}},
			&treeNode{Val: 2, Children: []*treeNode{shared, shared}}},
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
	if oldLeaf.Val != -1 || oldLeaf.Children != nil {
		t.Errorf("UnpackInto wrote through a pointee the destination held: %+v", oldLeaf)
	}

	// Identity: the second child is the first, and a back-reference to
	// the root resolves to the destination itself.
	var g treeNode
	root := &treeNode{Val: 1}
	root.Children = []*treeNode{shared, shared, {Val: 3, Parent: root}}
	frame, err := Pack(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(frame, &g); err != nil {
		t.Fatal(err)
	}
	if g.Children[0] != g.Children[1] || g.Children[2].Parent != &g {
		t.Error("UnpackInto lost the pointer identities of a shared graph")
	}

	// A slice with room keeps its backing array.
	held := &molecule{Bonds: make([]int, 8), Raw: make([]byte, 8)}
	bonds, raw := &held.Bonds[:1][0], &held.Raw[:1][0]
	frame, err = Pack(molecule{Bonds: []int{1, 2, 3}, Raw: []byte("ab")})
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
		benchGraph(),
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
