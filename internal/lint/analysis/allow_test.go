package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		keys []string
		ok   bool
	}{
		{"//samlint:allow wallclock", []string{"wallclock"}, true},
		{"//samlint:allow wallclock detiter", []string{"wallclock", "detiter"}, true},
		{"//samlint:allow wallclock -- host-side timestamp", []string{"wallclock"}, true},
		{"//samlint:allow all -- escape hatch", []string{"all"}, true},
		{"//samlint:allow", nil, false},
		{"//samlint:allow -- reason but no keys", nil, false},
		{"// ordinary comment", nil, false},
		{"//samlint:lockclass foo.bar", nil, false},
		{"//nolint:all", nil, false},
	}
	for _, c := range cases {
		keys, ok := ParseAllow(c.text)
		if ok != c.ok {
			t.Errorf("ParseAllow(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if len(keys) != len(c.keys) {
			t.Errorf("ParseAllow(%q) = %v, want %v", c.text, keys, c.keys)
			continue
		}
		for i := range keys {
			if keys[i] != c.keys[i] {
				t.Errorf("ParseAllow(%q) = %v, want %v", c.text, keys, c.keys)
				break
			}
		}
	}
}

// collectFromSource builds an Allows index from one synthetic file.
func collectFromSource(t *testing.T, src string) (*Allows, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture source: %v", err)
	}
	return CollectAllows(fset, []*Package{{Path: "fix", Files: []*ast.File{f}}}), fset
}

func TestSuppressionWindow(t *testing.T) {
	src := `package fix

func a() {
	_ = 1 //samlint:allow wallclock -- trailing form, line 4
}

func b() {
	//samlint:allow detiter -- standalone form, line 8
	_ = 2
	_ = 3
}
`
	allows, _ := collectFromSource(t, src)

	at := func(line int) token.Position {
		return token.Position{Filename: "fix.go", Line: line}
	}
	// Trailing directive suppresses its own line.
	if _, ok := allows.Suppressed(at(4), "wallclock", "nowallclock"); !ok {
		t.Error("trailing directive did not suppress a same-line diagnostic")
	}
	// Standalone directive suppresses the line directly below.
	if _, ok := allows.Suppressed(at(9), "detiter", "detiter"); !ok {
		t.Error("standalone directive did not suppress the line below")
	}
	// Two lines below is out of the window.
	if _, ok := allows.Suppressed(at(10), "detiter", "detiter"); ok {
		t.Error("directive suppressed a diagnostic two lines below")
	}
	// A key matches only its own analyzer/category.
	if _, ok := allows.Suppressed(at(4), "detiter", "detiter"); ok {
		t.Error("wallclock directive suppressed a detiter diagnostic")
	}
}

func TestAllowAllAndUnused(t *testing.T) {
	src := `package fix

func a() {
	_ = 1 //samlint:allow all -- blanket, used below
	_ = 2 //samlint:allow wallclock -- never matched
	_ = 3 //samlint:allow tyop -- misspelled key
}
`
	allows, _ := collectFromSource(t, src)
	allows.Keys["wallclock"] = true

	pos := token.Position{Filename: "fix.go", Line: 4}
	if key, ok := allows.Suppressed(pos, "detiter", "detiter"); !ok || key != "all" {
		t.Errorf("allow all at line 4: got (%q, %v), want (all, true)", key, ok)
	}

	unused := allows.Unused()
	if len(unused) != 2 {
		t.Fatalf("Unused() returned %d entries, want 2: %+v", len(unused), unused)
	}
	if unused[0].Key != "wallclock" || !unused[0].Known {
		t.Errorf("first unused = %+v, want known key wallclock", unused[0])
	}
	if unused[1].Key != "tyop" || unused[1].Known {
		t.Errorf("second unused = %+v, want unknown key tyop", unused[1])
	}
}
