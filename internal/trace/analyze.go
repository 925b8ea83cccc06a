package trace

import (
	"fmt"
	"io"
	"strings"

	"samft/internal/stats"
)

// PhaseNames lists the recovery phases in order. See the package
// documentation for what delimits each one.
var PhaseNames = [5]string{"solicit", "resupply", "rebuild", "arbitrate", "restart"}

// PhaseReport is one phase of one recovering incarnation.
type PhaseReport struct {
	Name    string
	StartUS float64
	EndUS   float64
	// Msgs and Bytes count the network messages the recovering process
	// received inside this phase's interval.
	Msgs  int
	Bytes int
}

// DurUS returns the phase duration in modeled microseconds.
func (p PhaseReport) DurUS() float64 { return p.EndUS - p.StartUS }

// IncarnationReport is the phase decomposition of one recovering
// incarnation (one replacement process spawned after a failure).
type IncarnationReport struct {
	Track string
	Key   int64
	Rank  int
	// StartUS..EndUS is the recovery window: first event on the
	// incarnation's track through sam.rec-done (or the last recorded
	// event when the incarnation never finished, e.g. it was re-killed).
	StartUS float64
	EndUS   float64
	// Complete is true when sam.rec-done was observed.
	Complete bool
	// Fresh is true when the incarnation restarted from Init because no
	// committed checkpoint existed yet.
	Fresh  bool
	Phases []PhaseReport
}

// WindowUS returns the total recovery window in modeled microseconds.
func (r IncarnationReport) WindowUS() float64 { return r.EndUS - r.StartUS }

// AttributedFraction returns the share of the recovery window covered by
// the named phases. Because phase boundaries are clamped to be monotone
// and contiguous this is 1.0 whenever the window is non-empty.
func (r IncarnationReport) AttributedFraction() float64 {
	w := r.WindowUS()
	if w <= 0 {
		return 1
	}
	var sum float64
	for _, p := range r.Phases {
		sum += p.DurUS()
	}
	return sum / w
}

// RecoveryReport is the phase-decomposed recovery analysis of one traced
// run: one entry per recovering incarnation, in order of recovery start.
type RecoveryReport struct {
	Incarnations []IncarnationReport
}

// AnalyzeRecovery scans the tracer's tracks and decomposes every
// recovering incarnation's timeline into phases. Tracks that never
// emitted sam.rec-solicit (original processes, the control track) are
// skipped. Safe to call on a nil tracer (returns an empty report).
func AnalyzeRecovery(t *Tracer) *RecoveryReport {
	rep := &RecoveryReport{}
	for _, tk := range t.Snapshot() {
		inc, ok := analyzeTrack(tk)
		if ok {
			rep.Incarnations = append(rep.Incarnations, inc)
		}
	}
	return rep
}

// analyzeTrack builds the phase decomposition for one track, reporting
// ok=false when the track is not a recovering incarnation.
func analyzeTrack(tk TrackEvents) (IncarnationReport, bool) {
	evs := tk.Events
	if len(evs) == 0 {
		return IncarnationReport{}, false
	}
	solicit := -1
	for i, e := range evs {
		if e.Kind == SamRecSolicit {
			solicit = i
			break
		}
	}
	if solicit < 0 {
		return IncarnationReport{}, false
	}

	inc := IncarnationReport{
		Track:   tk.Label,
		Key:     tk.Key,
		Rank:    tk.Rank,
		StartUS: evs[0].VirtUS,
	}
	if inc.Track == "" {
		inc.Track = trackName(tk.Key)
	}

	// Locate the raw markers. Each may be absent if the incarnation was
	// itself killed mid-recovery; a missing marker collapses its phase to
	// zero length at the previous boundary.
	var (
		firstContrib = -1.0
		restore      = -1.0
		dir          = -1.0
		lastArb      = -1.0
		done         = -1.0
	)
	for _, e := range evs {
		switch e.Kind {
		case SamRecContrib:
			if firstContrib < 0 {
				firstContrib = e.VirtUS
			}
		case SamRecRestore:
			restore = e.VirtUS
			if e.Note == "fresh" {
				inc.Fresh = true
			}
		case SamRecDir:
			dir = e.VirtUS
		case SamOwnerGrant, SamOwnerDeny:
			lastArb = e.VirtUS
		case SamRecDone:
			done = e.VirtUS
		}
	}
	inc.Complete = done >= 0
	end := evs[len(evs)-1].VirtUS
	if inc.Complete {
		end = done
	}
	inc.EndUS = end

	// Phase boundaries, clamped monotone and into the window, so the five
	// phases partition [StartUS, EndUS] exactly: a marker after the window
	// closed (an ownership verdict after sam.rec-done) ends its phase at
	// EndUS instead of stretching it past the window.
	bounds := [6]float64{inc.StartUS, firstContrib, restore, dir, lastArb, end}
	for i := 1; i < len(bounds); i++ {
		bounds[i] = min(max(bounds[i], bounds[i-1]), end)
	}
	inc.Phases = make([]PhaseReport, len(PhaseNames))
	for i, name := range PhaseNames {
		inc.Phases[i] = PhaseReport{Name: name, StartUS: bounds[i], EndUS: bounds[i+1]}
	}

	// Attribute received traffic to phases. A message on a boundary is
	// charged to the earliest phase whose interval ends at or after it.
	for _, e := range evs {
		if e.Kind != NetRecv || e.VirtUS > end {
			continue
		}
		for i := range inc.Phases {
			if e.VirtUS <= inc.Phases[i].EndUS || i == len(inc.Phases)-1 {
				inc.Phases[i].Msgs++
				inc.Phases[i].Bytes += e.Bytes
				break
			}
		}
	}
	return inc, true
}

// Fprint renders the report as tables: one per incarnation, with a
// per-phase row plus a total. Durations are reported in modeled
// milliseconds.
func (r *RecoveryReport) Fprint(w io.Writer) {
	if len(r.Incarnations) == 0 {
		fmt.Fprintln(w, "no recovering incarnations traced")
		return
	}
	for i, inc := range r.Incarnations {
		if i > 0 {
			fmt.Fprintln(w)
		}
		status := "complete"
		if !inc.Complete {
			status = "INCOMPLETE (re-killed or still recovering)"
		}
		if inc.Fresh {
			status += ", fresh restart"
		}
		fmt.Fprintf(w, "recovery of %s (rank %d): window %.3f ms, %s\n",
			inc.Track, inc.Rank, inc.WindowUS()/1000, status)
		tbl := stats.NewTable("phase", "start ms", "dur ms", "share %", "msgs", "bytes")
		win := inc.WindowUS()
		var msgs, bytes int
		for _, p := range inc.Phases {
			share := 0.0
			if win > 0 {
				share = 100 * p.DurUS() / win
			}
			tbl.Row(p.Name,
				fmt.Sprintf("%.3f", p.StartUS/1000),
				fmt.Sprintf("%.3f", p.DurUS()/1000),
				fmt.Sprintf("%.1f", share),
				p.Msgs, p.Bytes)
			msgs += p.Msgs
			bytes += p.Bytes
		}
		tbl.Row("total",
			fmt.Sprintf("%.3f", inc.StartUS/1000),
			fmt.Sprintf("%.3f", inc.WindowUS()/1000),
			fmt.Sprintf("%.1f", 100*inc.AttributedFraction()),
			msgs, bytes)
		tbl.Fprint(w)
	}
}

// String renders the report to a string.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}
