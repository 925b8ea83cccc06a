package codec

import (
	"testing"
)

// Benchmarks for the checkpoint hot path: Pack/Unpack of the object shapes
// SAM replicates on every checkpoint. Run with -benchmem; the compiled
// codec plans are measured against these (see README "Performance").

// benchSmall is a scalar-only struct like the per-molecule records the
// Water app checkpoints.
type benchSmall struct {
	ID   int64
	Pos  vec3
	Vel  vec3
	Mass float64
}

func init() {
	Register("benchSmall", benchSmall{})
}

// benchTree is a 41-node pointer tree: a root, 8 branches, 4 leaves each.
func benchTree() *tree {
	root := &tree{Val: 0}
	for i := 0; i < 8; i++ {
		b := &branch{Val: i + 1}
		for j := 0; j < 4; j++ {
			b.Leaves = append(b.Leaves, &leaf{Val: 100*i + j})
		}
		root.Branches = append(root.Branches, b)
	}
	return root
}

func BenchmarkPackSmallStruct(b *testing.B) {
	in := benchSmall{ID: 7, Pos: vec3{1, 2, 3}, Vel: vec3{-0.5, 0.25, 0}, Mass: 18.015}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackAggregate(b *testing.B) {
	in := molecule{
		ID:    7,
		Pos:   vec3{1, 2, 3},
		Vel:   vec3{-0.5, 0.25, 0},
		Bonds: []int{3, 1, 4, 1, 5, 9, 2, 6},
		Raw:   []byte("0123456789abcdef"),
		Grid:  [4]int32{9, 8, 7, 6},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackPointerGraph(b *testing.B) {
	in := benchTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	frame, err := Pack(molecule{
		ID:    7,
		Pos:   vec3{1, 2, 3},
		Bonds: []int{3, 1, 4, 1, 5, 9, 2, 6},
		Raw:   []byte("0123456789abcdef"),
		Grid:  [4]int32{9, 8, 7, 6},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackPointerGraph(b *testing.B) {
	frame, err := Pack(benchTree())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(frame); err != nil {
			b.Fatal(err)
		}
	}
}
