package sam

import (
	"testing"

	"samft/internal/codec"
)

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
	for k := kReg; k <= kOwnerDeny; k++ {
		if name := kindName(k); name == "" || name == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := kindName(0); got != "?" {
		t.Errorf("kindName(0) = %q, want ?", got)
	}
}

// TestEveryKindIsNamed pins the kind list against its name table: kinds are
// numbered 1 … kOwnerDeny without a gap, each has a name of its own, and the
// table holds no name left over from a kind that is gone. The list only ever
// shrinks (ROADMAP: fewer message kinds, not more), so its length is pinned
// as a ceiling.
func TestEveryKindIsNamed(t *testing.T) {
	const last = kOwnerDeny
	if last > 26 {
		t.Errorf("%d message kinds, want at most 26: fold the new exchange into an existing one", last)
	}
	if len(kindNames) != last+1 {
		t.Errorf("kindNames has %d slots for %d kinds", len(kindNames), last)
	}
	seen := map[string]int{}
	for k := 1; k <= last; k++ {
		name := kindName(k)
		if name == "" || name == "?" {
			t.Errorf("kind %d has no name", k)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestFrameSizes pins the frame sizes msg.go's comment states: every field
// is encoded whether its kind uses it or not, so the smallest control frame
// and one whose delta stamp carries a single changed entry have fixed sizes.
func TestFrameSizes(t *testing.T) {
	for _, tc := range []struct {
		what string
		w    *wire
		want int
	}{
		{"bare control frame", &wire{Kind: kCkptAck, Seq: 7, Target: 1}, 160},
		{"one-entry stamp", &wire{Kind: kCkptAck, Seq: 7, Target: 1, HasStamp: true, StampIdx: []int64{2}, StampVal: []int64{9}, StampC: 3}, 184},
	} {
		b, err := codec.Pack(tc.w)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if len(b) != tc.want {
			t.Errorf("%s packs to %d bytes, want %d", tc.what, len(b), tc.want)
		}
	}
}
