package sam

import (
	"cmp"
	"slices"
)

// sortedKeys snapshots m's keys in ascending order. Loops that send
// messages, emit trace events, or build wire payloads iterate this
// instead of the map directly: Go randomizes map order per run, and a
// map-ordered wire or trace breaks run-to-run reproducibility (enforced
// by the detiter analyzer in internal/lint).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	return appendSortedKeys(make([]K, 0, len(m)), m)
}

// appendSortedKeys is sortedKeys into dst's storage.
func appendSortedKeys[K cmp.Ordered, V any](dst []K, m map[K]V) []K {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// sortedNames is sortedKeys for the loops that run on every message or
// transaction: the keys go into the process's scratch buffer, which the
// caller gives back with putNames. A nested caller finds the buffer taken
// and sorts into a fresh one.
func sortedNames[V any](p *Proc, m map[Name]V) []Name {
	buf := p.nameScratch[:0]
	p.nameScratch = nil
	return appendSortedKeys(buf, m)
}

// putNames gives a sortedNames buffer back for the next caller.
func (p *Proc) putNames(names []Name) { p.nameScratch = names[:0] }
