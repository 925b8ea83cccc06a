package sam

import "testing"

// TestKindNameNoAlloc pins kindName at zero allocations: encodeWire's
// error path and every trace line go through it.
func TestKindNameNoAlloc(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		sink = kindName(kOwnerDeny)
		sink = kindName(len(kindNames))
	}); n != 0 {
		t.Fatalf("kindName allocates %v times per call pair", n)
	}
	_ = sink
	for k := kValReg; k <= kOwnerDeny; k++ {
		if name := kindName(k); name == "" || name == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := kindName(0); got != "?" {
		t.Errorf("kindName(0) = %q, want ?", got)
	}
}
