package main

import (
	"time"

	"samft/internal/scenario"
	"samft/internal/trace"
)

// Metric is one reported number: its unit and the summary of its samples.
type Metric struct {
	Unit string `json:"unit"`
	Stat
}

// Row is the result of one pass over one workload.
type Row struct {
	Workload string `json:"workload"`
	// Pass is "timed" (end-to-end metrics, tracing off) or "traced"
	// (per-layer metrics).
	Pass string `json:"pass"`
	// Attempted/Failed count runs (app workloads) or samples (fabric64).
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Skipped counts the runs left out because they hit a known defect
	// (apprun.go), by the defect's canary metric.
	Skipped map[string]int    `json:"skipped_known_defects,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
	// HostS is how long the pass took, set-up included.
	HostS float64 `json:"host_s"`
}

// addFunc records one metric's samples in a row. The unit comes from the
// metric tables; a name missing there is a bug in the benchmark.
type addFunc func(name string, samples []float64)

func (r *Row) adder(defs []MetricDef) addFunc {
	return func(name string, samples []float64) {
		def, ok := findMetric(defs, name)
		if !ok {
			panic("bench: metric " + name + " is not in the metric table")
		}
		if len(samples) == 0 {
			return // every run failed; the row already says so
		}
		r.Metrics[name] = Metric{Unit: def.Unit, Stat: summarize(samples)}
	}
}

// sizes fixes how much work a pass does. Tests shrink them; the command
// line only ever replaces the repetition count by a time budget.
type sizes struct {
	// setupRounds is how many times set-up is repeated for setup_s.
	setupRounds int
	// tracedReps is the repetition count of the traced pass.
	tracedReps int
	// driverSamples is the sample count of each host-timed layer driver.
	driverSamples int
	// canaryRuns is how many no-FT GPS runs the push-crash canary makes.
	canaryRuns int
	// sliceSamples is the size of an app workload's fabric64 slice when
	// there is no -seconds budget.
	sliceSamples int
}

var fullSizes = sizes{setupRounds: 5, tracedReps: 10, driverSamples: 15, canaryRuns: 100, sliceSamples: 40}

const (
	// sliceShare is the part of a -seconds budget that goes to the
	// fabric64 slice behind host_msgs_per_s, after the repetitions: run in
	// between them, its 64-task bursts made the app runs' host time (and,
	// through goroutine interleaving, modeled time) 3x noisier.
	sliceShare = 0.15
	// minReps keeps a median meaningful on a host so slow that a -seconds
	// budget runs out first.
	minReps = 5
)

// enough reports whether a measuring loop that has done i iterations may
// stop: after fixed iterations when there is no deadline, otherwise once
// the deadline has passed and at least floor iterations are done.
func enough(i, fixed, floor int, deadline time.Time) bool {
	if deadline.IsZero() {
		return i >= fixed
	}
	return i >= floor && !time.Now().Before(deadline)
}

// timedApp is the timed pass of an app workload: set-up, then
// repetitions of {off, ft, kill} with tracing off (the kill run alone
// carries a tracer, the only public surface that sees sam.rec-done), then
// the fabric64 slice. With budget 0 it runs reps repetitions; otherwise
// as many as fit in the budget.
func timedApp(w Workload, seed uint64, reps int, budget time.Duration, sz sizes) Row {
	began := time.Now()
	row := Row{Workload: w.Name, Pass: "timed", Metrics: make(map[string]Metric)}
	r := &runner{workload: w.Name}

	// One repetition: all three variants on one dataset. Warm-ups are
	// checked like any repetition but not recorded.
	var base, ftS, killS, ratio, window, hostS, allocMB []float64
	rep := func(c scenario.Compiled, i int, record bool) {
		v := deriveVariants(c, appSeed(w, seed, i), seed)
		off := r.run("off", v.Off, false, 0, i)
		f := r.run("ft", v.FT, false, 0, i)
		k := r.run("kill", v.Kill, true, 0, i)
		if !r.sameAnswer(i, off, f, k) || !record {
			return
		}
		if off != nil {
			base = append(base, off.res.ModeledSec)
		}
		if f != nil {
			ftS = append(ftS, f.res.ModeledSec)
			hostS = append(hostS, f.hostS)
			allocMB = append(allocMB, float64(f.allocB)/1e6)
		}
		if off != nil && f != nil {
			ratio = append(ratio, f.res.ModeledSec/off.res.ModeledSec)
		}
		if k != nil {
			killS = append(killS, k.res.ModeledSec)
			window = append(window, k.rec.WindowMS)
		}
	}

	var c scenario.Compiled
	var setups []float64
	for i := 0; i < sz.setupRounds && !r.hung; i++ {
		t0 := time.Now()
		var err error
		if c, err = loadWorkload(w.Name); err != nil {
			row.Attempted, row.Failed, row.Problems = 1, 1, []string{err.Error()}
			return row
		}
		rep(c, -1-i, false)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var repsEnd, sliceEnd time.Time // zero = fixed counts
	if budget > 0 {
		t1 := time.Now()
		repsEnd = t1.Add(time.Duration((1 - sliceShare) * float64(budget)))
		sliceEnd = t1.Add(budget)
	}
	for i := 0; !r.hung && !enough(i, reps, minReps, repsEnd); i++ {
		rep(c, i, true)
	}
	var slice fabricAcc
	for i := 0; !enough(i, sz.sliceSamples, minReps, sliceEnd); i++ {
		slice.sample()
	}

	add := row.adder(endToEnd)
	add("setup_s", setups)
	add("base_modeled_s", base)
	add("ft_modeled_s", ftS)
	add("killed_modeled_s", killS)
	add("recovery_modeled_ms", window)
	add("host_s_per_run", hostS)
	add("host_alloc_mb_per_run", allocMB)
	add("host_msgs_per_s", slice.msgsPerS)
	if len(ratio) > 0 {
		// The ratio of the medians, not the median of the ratios: it is
		// the number the paper's figures give. The per-repetition ratios
		// supply its spread.
		st := summarize(ratio)
		st.Median = median(ftS) / median(base)
		st.PHi, st.PHiPct = 0, 0
		row.Metrics["ft_slowdown_x"] = Metric{Unit: "x", Stat: st}
	}
	row.Attempted = r.attempted + slice.attempted
	row.Failed = r.failed + slice.failed
	row.Problems = append(r.problems, slice.problems...)
	row.Skipped = r.skipped
	row.HostS = time.Since(began).Seconds()
	return row
}

// tracedApp is the traced pass of an app workload: repetitions of
// {ft, ft traced, kill, kill traced} for the modeled-time layer metrics
// and the tracing overhead, then the host-timed layer drivers and the
// no-FT push-crash canary. The benchmark's own spans go into log.
func tracedApp(w Workload, seed uint64, log *spanLog, sz sizes) Row {
	began := time.Now()
	log.workload = w.Name
	row := Row{Workload: w.Name, Pass: "traced", Metrics: make(map[string]Metric)}
	r := &runner{workload: w.Name, spans: log}
	add := row.adder(perLayer)
	root := log.start("workload", 0, -1)

	file := workloadFile(w.Name)
	span := log.start("scenario.LoadFile", root, -1)
	s, err := scenario.LoadFile(file)
	log.end(span)
	if err != nil {
		row.Attempted, row.Failed, row.Problems = 1, 1, []string{err.Error()}
		return row
	}
	span = log.start("scenario.Compile", root, -1)
	c := scenario.Compile(s, file)
	log.end(span)

	// samples collects each metric's values over the repetitions: from a
	// traced ft run the event-derived numbers and the stats.Report
	// counters, from a traced kill run the recovery phases.
	samples := make(map[string][]float64)
	col := func(name string, v ...float64) { samples[name] = append(samples[name], v...) }
	var ftHost, ftHostTraced, killS, killSTraced []float64
	for i := 0; i < sz.tracedReps && !r.hung; i++ {
		repSpan := log.start("rep", root, i)
		v := deriveVariants(c, appSeed(w, seed, i), seed)
		f := r.run("ft", v.FT, false, repSpan, i)
		ft := r.run("ft+trace", v.FT, true, repSpan, i)
		k := r.run("kill", v.Kill, false, repSpan, i)
		kt := r.run("kill+trace", v.Kill, true, repSpan, i)
		log.end(repSpan)
		if !r.sameAnswer(i, f, ft, k, kt) {
			continue
		}
		if f != nil {
			ftHost = append(ftHost, f.hostS)
		}
		if k != nil {
			killS = append(killS, k.res.ModeledSec)
		}
		if ft != nil {
			ftHostTraced = append(ftHostTraced, ft.hostS)
			tracks := ft.tracer.Snapshot()
			col("sam.ckpt_tx_us_p50", ckptTxDurationsUS(tracks)...)
			col("sam.fetch_latency_us_p50", fetchLatenciesUS(tracks)...)
			n, b := kindTotals(tracks, trace.NetSend)
			col("netsim.msgs_per_run", float64(n))
			col("netsim.bytes_per_run", float64(b))
			n, _ = kindTotals(tracks, trace.SamMigrateOut)
			col("sam.migrations_per_run", float64(n))
			n, _ = eventTotals(tracks)
			col("trace.events_per_run", float64(n))

			rep, t := ft.res.Report, ft.res.Report.Total
			col("sam.ckpts_per_run", float64(t.Checkpoints))
			col("sam.forced_ckpts_per_run", float64(t.ForcedCheckpoints))
			col("sam.force_msgs_per_run", float64(t.ForceCkptMsgsSent))
			col("sam.ckpt_causing_send_pct", rep.PctSendsCausingCheckpoint())
			col("sam.replica_bytes_per_run", float64(t.ReplicaBytes))
			col("sam.replica_objects_per_run", float64(t.ReplicaObjects))
			col("sam.priv_bytes_per_run", float64(t.PrivBytes))
			col("sam.snapcache_hit_pct", rep.SnapCacheHitPct())
			col("sam.miss_rate_pct", rep.MissRatePct())
			col("apps.steps_per_run", float64(t.StepsExecuted))
		}
		if kt != nil {
			killSTraced = append(killSTraced, kt.res.ModeledSec)
			n, _ := kindTotals(kt.tracer.Snapshot(), trace.NetDrop)
			col("netsim.drops_per_run", float64(n))
			t := kt.res.Report.Total
			col("ckptstore.repair_objects_per_run", float64(t.RepairObjects))
			col("ckptstore.repair_bytes_per_run", float64(t.RepairBytes))
			col("sam.rec_incomplete_per_run", float64(kt.rec.Incomplete))
			col("sam.rec_msgs", kt.rec.Msgs)
			col("sam.rec_bytes", kt.rec.Bytes)
			for p, name := range trace.PhaseNames {
				col("sam.rec_"+name+"_ms", kt.rec.PhaseMS[p])
			}
			if ft != nil {
				col("apps.replayed_steps", float64(t.StepsExecuted-ft.res.Report.Total.StepsExecuted))
			}
		}
	}
	for name, v := range samples {
		add(name, v)
	}
	// The two checkpoint-transaction rows are one distribution: the p_hi
	// row repeats its upper percentile as the row's value.
	if tx, ok := row.Metrics["sam.ckpt_tx_us_p50"]; ok {
		if tx.PHiPct > 0 {
			tx.Median = tx.PHi
		}
		row.Metrics["sam.ckpt_tx_us_p_hi"] = tx
	}
	if len(ftHost) > 0 && len(ftHostTraced) > 0 {
		add("trace.host_overhead_pct", []float64{100 * (median(ftHostTraced)/median(ftHost) - 1)})
	}
	if len(killS) > 0 && len(killSTraced) > 0 {
		add("trace.modeled_delta_pct", []float64{100 * (median(killSTraced)/median(killS) - 1)})
	}
	add("trace.dropped_events", []float64{float64(r.dropped)})

	if r.killRuns > 0 {
		add(coverageMiss, []float64{float64(r.skipped[coverageMiss]) / float64(r.killRuns)})
	}
	if !r.hung {
		layerDrivers(log, root, sz.driverSamples, file, false, add)
		add(pushCrash, pushCrashCanary(r, root, sz.canaryRuns))
	}

	log.end(root)
	row.Attempted, row.Failed, row.Problems, row.Skipped = r.attempted, r.failed, r.problems, r.skipped
	row.HostS = time.Since(began).Seconds()
	return row
}

// layerDrivers runs the host-timed layer drivers, each in its own span:
// all of them, or with fabricOnly just the layers fabric64 uses.
func layerDrivers(log *spanLog, parent, samples int, file string, fabricOnly bool, add addFunc) {
	for _, d := range []struct {
		layer  string
		fabric bool
		run    func()
	}{
		{"netsim", true, func() { netsimDrivers(samples, add) }},
		{"pvm", true, func() { pvmDrivers(samples, add) }},
		{"codec", false, func() { codecDrivers(samples, add) }},
		{"ft", false, func() { ftDrivers(samples, add) }},
		{"ckptstore", false, func() { ckptstoreDrivers(samples, add) }},
		{"cluster", false, func() { clusterDrivers(samples, add) }},
		{"scenario", false, func() { scenarioDrivers(samples, file, add) }},
	} {
		if fabricOnly && !d.fabric {
			continue
		}
		span := log.start("driver:"+d.layer, parent, -1)
		d.run()
		log.end(span)
	}
}

// pushCrashCanary runs the gps8 fleet with fault tolerance off and
// returns crashes / runs for the known Push-after-free panic. Any other
// failure of these runs counts against the pass as usual.
func pushCrashCanary(r *runner, parent, runs int) []float64 {
	c, err := loadWorkload("gps8")
	if err != nil {
		r.attempted++
		r.fail("canary: %v", err)
		return nil
	}
	off := deriveVariants(c, 0, 0).Off
	span := r.spans.start("canary:noft-push", parent, -1)
	defer r.spans.end(span)
	before, crashes := r.offRuns, r.skipped[pushCrash]
	for i := 0; i < runs && !r.hung; i++ {
		r.run("off", off, false, span, i)
	}
	if r.offRuns == before {
		return nil
	}
	return []float64{float64(r.skipped[pushCrash]-crashes) / float64(r.offRuns-before)}
}

// timedFabric is the timed pass of fabric64: set-up is one warm-up
// sample (it fills the message pools), then the samples.
func timedFabric(w Workload, budget time.Duration, sz sizes) Row {
	began := time.Now()
	row := Row{Workload: w.Name, Pass: "timed", Metrics: make(map[string]Metric)}
	var setups []float64
	for i := 0; i < sz.setupRounds; i++ {
		t0 := time.Now()
		if _, err := fabricSample(); err != nil {
			row.Attempted, row.Failed, row.Problems = 1, 1, []string{err.Error()}
			return row
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var acc fabricAcc
	for i := 0; !enough(i, w.Reps, minReps, deadline); i++ {
		acc.sample()
	}
	add := row.adder(endToEnd)
	add("setup_s", setups)
	add("host_msgs_per_s", acc.msgsPerS)
	add("host_alloc_mb_per_run", acc.allocMB)
	row.Attempted, row.Failed, row.Problems = acc.attempted, acc.failed, acc.problems
	row.HostS = time.Since(began).Seconds()
	return row
}

// tracedFabric is fabric64's traced pass: it has no sam, so only the
// netsim and pvm drivers apply.
func tracedFabric(w Workload, log *spanLog, sz sizes) Row {
	began := time.Now()
	log.workload = w.Name
	row := Row{Workload: w.Name, Pass: "traced", Attempted: 1, Metrics: make(map[string]Metric)}
	add := row.adder(perLayer)
	root := log.start("workload", 0, -1)
	layerDrivers(log, root, sz.driverSamples, "", true, add)
	log.end(root)
	row.HostS = time.Since(began).Seconds()
	return row
}
