package main

import (
	"sort"
	"time"
)

// Span is one timed call from the benchmark into a layer. Spans are only
// recorded in the traced pass and only from the benchmark's own files,
// around the calls into each layer; spans inside the program are a later
// change.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"` // since the log was created
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing, which is how the timed pass runs. It is used from the
// benchmark's main goroutine only.
type spanLog struct {
	t0 time.Time
	// workload labels the spans started from now on; each traced pass
	// sets it first.
	workload string
	spans    []Span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil log).
func (l *spanLog) start(name string, parent, rep int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: l.workload, Rep: rep,
		StartNS: time.Since(l.t0).Nanoseconds(),
	})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
}

// SpanTotal is the per-name roll-up written beside the raw spans.
type SpanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is TotalMS minus the time covered by child spans.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes rolls spans up by name: a span's self time is its duration
// minus its direct children's durations (children never overlap: the
// benchmark is a closed loop on one goroutine).
func selfTimes(spans []Span) []SpanTotal {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	byName := make(map[string]*SpanTotal)
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &SpanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		dur := s.EndNS - s.StartNS
		t.Count++
		t.TotalMS += float64(dur) / 1e6
		t.SelfMS += float64(dur-child[s.ID]) / 1e6
	}
	out := make([]SpanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
