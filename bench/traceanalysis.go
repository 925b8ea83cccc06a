package main

import (
	"math"

	"samft/internal/trace"
)

// ckptTxDurationsUS returns the modeled duration of every checkpoint
// transaction in the tracks: sam.ckpt-begin paired with the
// sam.ckpt-commit carrying the same Aux (checkpoint sequence) on the
// same track. A begin with no commit (the process died mid-transaction)
// contributes nothing.
func ckptTxDurationsUS(tracks []trace.TrackEvents) []float64 {
	var out []float64
	for _, tk := range tracks {
		begun := make(map[int64]float64)
		for _, e := range tk.Events {
			switch e.Kind {
			case trace.SamCkptBegin:
				begun[e.Aux] = e.VirtUS
			case trace.SamCkptCommit:
				if t0, ok := begun[e.Aux]; ok {
					out = append(out, e.VirtUS-t0)
					delete(begun, e.Aux)
				}
			}
		}
	}
	return out
}

// fetchLatenciesUS returns the modeled time from each sam.fetch to the
// first later sam.fetch-data with the same Name on the same track.
func fetchLatenciesUS(tracks []trace.TrackEvents) []float64 {
	var out []float64
	for _, tk := range tracks {
		asked := make(map[uint64]float64)
		for _, e := range tk.Events {
			switch e.Kind {
			case trace.SamFetch:
				if _, pending := asked[e.Name]; !pending {
					asked[e.Name] = e.VirtUS
				}
			case trace.SamFetchData:
				if t0, ok := asked[e.Name]; ok {
					out = append(out, e.VirtUS-t0)
					delete(asked, e.Name)
				}
			}
		}
	}
	return out
}

// kindTotals counts the events of one kind and sums their Bytes.
func kindTotals(tracks []trace.TrackEvents, kind trace.Kind) (count, bytes int) {
	for _, tk := range tracks {
		for _, e := range tk.Events {
			if e.Kind == kind {
				count++
				bytes += e.Bytes
			}
		}
	}
	return count, bytes
}

// eventTotals returns how many events the tracks retain and how many the
// ring buffers overwrote.
func eventTotals(tracks []trace.TrackEvents) (events int, dropped uint64) {
	for _, tk := range tracks {
		events += len(tk.Events)
		dropped += tk.Dropped
	}
	return events, dropped
}

// recoverySummary aggregates one kill run's recovery report. Times are
// means over the complete incarnations, in modeled milliseconds.
type recoverySummary struct {
	WindowMS float64
	PhaseMS  [len(trace.PhaseNames)]float64
	Msgs     float64
	Bytes    float64
	Complete int
	// Incomplete counts replacements that never reached sam.rec-done
	// (re-killed mid-recovery).
	Incomplete int
	// Attributed is false when some complete incarnation's phases do not
	// add up to its window.
	Attributed bool
}

func summarizeRecovery(rep *trace.RecoveryReport) recoverySummary {
	s := recoverySummary{Attributed: true}
	for _, inc := range rep.Incarnations {
		if !inc.Complete {
			s.Incomplete++
			continue
		}
		s.Complete++
		s.WindowMS += inc.WindowUS() / 1000
		for i, p := range inc.Phases {
			s.PhaseMS[i] += p.DurUS() / 1000
			s.Msgs += float64(p.Msgs)
			s.Bytes += float64(p.Bytes)
		}
		if math.Abs(inc.AttributedFraction()-1) > 1e-9 {
			s.Attributed = false
		}
	}
	if s.Complete > 0 {
		n := float64(s.Complete)
		s.WindowMS /= n
		s.Msgs /= n
		s.Bytes /= n
		for i := range s.PhaseMS {
			s.PhaseMS[i] /= n
		}
	}
	return s
}
