package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// This file implements //samlint:allow suppression as an object shared
// between the driver and staleallow: the driver filters each reported
// diagnostic against the index, which records the directives that
// matched, and staleallow reports the ones that never did.

// allowEntry is one key of one //samlint:allow directive.
type allowEntry struct {
	pos  token.Pos
	file string
	line int
	key  string
	used bool
}

// Allows is the module-wide index of //samlint:allow directives. A
// directive suppresses matching diagnostics on its own line and on the
// line directly below it (so it can trail the offending expression or
// stand alone above it). Matching a diagnostic through Suppressed marks
// the entry used; Unused() is the staleallow analyzer's input.
type Allows struct {
	byFile map[string]map[int][]*allowEntry
	all    []*allowEntry
	// Keys is the set of valid suppression keys for the current run
	// (every analyzer name and category, plus "all"). staleallow uses it
	// to tell a rotted directive from a typo'd one.
	Keys map[string]bool
}

// ParseAllow parses "//samlint:allow key1 key2 -- optional reason",
// returning the keys.
func ParseAllow(text string) ([]string, bool) {
	body, ok := strings.CutPrefix(text, "//samlint:allow")
	if !ok {
		return nil, false
	}
	if reason := strings.Index(body, "--"); reason >= 0 {
		body = body[:reason]
	}
	keys := strings.Fields(body)
	if len(keys) == 0 {
		return nil, false
	}
	return keys, true
}

// CollectAllows scans every file's comments for allow directives.
func CollectAllows(fset *token.FileSet, pkgs []*Package) *Allows {
	a := &Allows{byFile: make(map[string]map[int][]*allowEntry), Keys: make(map[string]bool)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					keys, ok := ParseAllow(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					lines := a.byFile[pos.Filename]
					if lines == nil {
						lines = make(map[int][]*allowEntry)
						a.byFile[pos.Filename] = lines
					}
					for _, k := range keys {
						e := &allowEntry{pos: c.Pos(), file: pos.Filename, line: pos.Line, key: k}
						lines[pos.Line] = append(lines[pos.Line], e)
						a.all = append(a.all, e)
					}
				}
			}
		}
	}
	return a
}

// entriesAt returns the directive entries covering pos (same line or the
// line above).
func (a *Allows) entriesAt(pos token.Position) []*allowEntry {
	if a == nil {
		return nil
	}
	lines := a.byFile[pos.Filename]
	if lines == nil {
		return nil
	}
	if above := lines[pos.Line-1]; len(above) > 0 {
		return append(append([]*allowEntry(nil), lines[pos.Line]...), above...)
	}
	return lines[pos.Line]
}

// Suppressed reports whether a diagnostic at pos with the given category
// and analyzer is suppressed, returning the matching key. The match is
// recorded: a suppressing directive is "used".
func (a *Allows) Suppressed(pos token.Position, category, analyzer string) (string, bool) {
	for _, e := range a.entriesAt(pos) {
		if e.key == category || e.key == analyzer || e.key == "all" {
			e.used = true
			return e.key, true
		}
	}
	return "", false
}

// UnusedDirective describes one allow key that suppressed nothing.
type UnusedDirective struct {
	Pos token.Pos
	Key string
	// Known reports whether the key is a valid suppression key for the
	// run's analyzer suite (a rotted directive) as opposed to a typo.
	Known bool
}

// Unused returns the directive keys that matched no diagnostic, in
// file/line order.
func (a *Allows) Unused() []UnusedDirective {
	if a == nil {
		return nil
	}
	var out []UnusedDirective
	for _, e := range a.all {
		if !e.used {
			out = append(out, UnusedDirective{Pos: e.pos, Key: e.key, Known: a.Keys[e.key] || e.key == "all"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
