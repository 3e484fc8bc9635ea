package main

import (
	"runtime"
	"time"
)

// share is one component's part of the summed job wall.
type share struct {
	name string
	d    time.Duration
}

// layerReport is the traced run's output: per-layer metrics and the
// layer-share table.
type layerReport struct {
	metrics  []metric
	shares   []share
	total    time.Duration
	residual time.Duration
	overhead float64
}

// inprocShares and daemonShares are the components a job's wall splits
// into: for search-inproc the layers the benchmark calls, for the daemon
// workloads the phases a caller sees.
var (
	inprocShares = []string{"jobs.build", "shadow.collect", "dataflow.analyze", "errbound.analyze", "search.runner_setup", "search.unit", "search.coord_self"}
	daemonShares = []string{"service.submit", "service.first_verdict", "service.evaluation", "service.result"}
)

// shareMetric names the per-layer metric of a share component.
var shareMetric = map[string]string{
	"jobs.build": "layers.build_frac", "shadow.collect": "layers.shadow_frac",
	"dataflow.analyze": "layers.dataflow_frac", "errbound.analyze": "layers.errbound_frac",
	"search.runner_setup": "layers.runner_setup_frac", "search.unit": "layers.units_frac",
	"search.coord_self": "layers.coord_self_frac", "service.submit": "layers.submit_frac",
	"service.first_verdict": "layers.first_verdict_frac", "service.evaluation": "layers.evaluation_frac",
	"service.result": "layers.result_frac",
}

// layerMetrics reduces a traced pass to the per-layer metrics. Layers a
// workload bypasses read 0.
func layerMetrics(wl *workload, w window, tr *tracer, ps *poolStats, side map[string]float64, vmc *vmStats, overhead float64) *layerReport {
	x := indexSpans(tr.closed())
	lr := &layerReport{overhead: overhead}
	add := func(name, unit string, v float64) { lr.metrics = append(lr.metrics, metric{name, unit, v}) }

	var (
		jobs                                               int
		tested, memo, pruned, predicted, proved, evaluated int
		forked, evalFail, cacheHits                        int
		prefixSaved                                        uint64
		unitMS                                             []float64
		busy                                               time.Duration
	)
	for _, o := range w.outcomes {
		s := o.sum
		if s == nil {
			continue
		}
		jobs++
		tested += s.Tested
		memo += s.MemoHits
		pruned += s.Provenance["pruned"]
		predicted += s.Predicted
		proved += s.Proved
		forked += s.Forked
		prefixSaved += s.PrefixSaved
		cacheHits += s.CacheHits
		for _, e := range s.Evals {
			if e.Prov != "evaluated" {
				continue
			}
			evaluated++
			if !e.Pass {
				evalFail++
			}
			d := time.Duration(e.WallNS)
			busy += d
			unitMS = append(unitMS, ms(d))
		}
	}
	perJob := func(v float64) float64 {
		if jobs == 0 {
			return 0
		}
		return v / float64(jobs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobWall := x.total("request")

	// Fixed per-request layers: timed around the benchmark's own calls
	// in process, or by side calls for the daemon workloads.
	layerMS := func(name string) float64 {
		if wl.daemon {
			return side[name]
		}
		return x.meanMS(name)
	}
	add("jobs.build_ms", "ms", layerMS("jobs.build"))
	add("jobs.cache_hit_frac", "fraction", ratio(float64(cacheHits), float64(cacheHits+tested)))
	storeKB := 0.0
	if ps != nil {
		storeKB = perJob(float64(ps.storeBytes) / 1024)
	}
	add("jobs.store_kb_per_job", "KiB", storeKB)
	add("shadow.collect_ms", "ms", layerMS("shadow.collect"))
	add("dataflow.analyze_ms", "ms", layerMS("dataflow.analyze"))
	add("errbound.analyze_ms", "ms", layerMS("errbound.analyze"))
	add("errbound.proved_verdicts", "count", perJob(float64(proved)))

	// Units: counted where they were evaluated.
	units, remoteUnits := 0, 0
	if ps != nil {
		for _, wi := range ps.workers {
			units += wi.Done
			if wi.Remote {
				remoteUnits += wi.Done
			}
		}
	} else {
		units = len(x.byName["search.unit"])
	}
	var coordSelf time.Duration
	for _, s := range x.byName["search.run"] {
		coordSelf += x.self(s)
	}
	p50, _ := percentile(unitMS, 0, 0.5)
	p90, _ := percentile(unitMS, 0, 0.9)
	if len(unitMS) == 0 {
		p50, p90 = 0, 0
	}
	add("search.runner_setup_ms", "ms", layerMS("search.runner_setup"))
	add("search.units", "count", perJob(float64(units)))
	add("search.unit_ms_p50", "ms", p50)
	add("search.unit_ms_p90", "ms", p90)
	add("search.unit_busy_s", "s", perJob(busy.Seconds()))
	add("search.parallelism", "x", ratio(busy.Seconds(), jobWall.Seconds()))
	add("search.coord_self_ms", "ms", perJob(ms(coordSelf)))
	add("search.forked_frac", "fraction", ratio(float64(forked), float64(evaluated)))
	add("search.prefix_saved_minstr", "Minstr", perJob(float64(prefixSaved)/1e6))
	add("search.unit_fail_frac", "fraction", ratio(float64(evalFail), float64(evaluated)))
	add("search.tested", "count", perJob(float64(tested)))
	add("search.memo_hits", "count", perJob(float64(memo)))
	add("search.pruned", "count", perJob(float64(pruned)))
	add("search.predicted", "count", perJob(float64(predicted)))

	add("vm.msteps_per_s", "Msteps/s", vmc.mstepsPerS)
	add("vm.base_steps", "steps", float64(vmc.baseSteps))
	add("replace.overhead_x", "x", vmc.overheadX)

	var queue, busyFrac, discard, fallbacks float64
	if ps != nil {
		done, disc := 0, 0
		for _, wi := range ps.workers {
			done += wi.Done
			disc += wi.Discarded
		}
		queue = ps.queueMean
		busyFrac = ratio(busy.Seconds(), float64(runtime.NumCPU())*w.span.Seconds())
		discard = ratio(float64(disc), float64(done+disc))
		fallbacks = float64(ps.fallbacks)
	}
	add("fleet.queue_depth_mean", "units", queue)
	add("fleet.worker_busy_frac", "fraction", busyFrac)
	add("fleet.discard_frac", "fraction", discard)
	add("fleet.fallbacks", "count", fallbacks)

	claims, reports := x.byName["remote.claim"], x.byName["remote.report"]
	empty, reported := 0, 0
	for _, c := range claims {
		if c.N == 0 {
			empty++
		}
	}
	for _, r := range reports {
		reported += r.N
	}
	var wire int64
	for _, name := range []string{"remote.claim", "remote.report", "remote.heartbeat", "remote.register", "remote.spec"} {
		for _, s := range x.byName[name] {
			wire += s.Bytes
		}
	}
	ru := float64(remoteUnits)
	add("remote.claims_per_unit", "count", ratio(float64(len(claims)), ru))
	add("remote.empty_claim_frac", "fraction", ratio(float64(empty), float64(len(claims))))
	add("remote.units_per_report", "count", ratio(float64(reported), float64(len(reports))))
	add("remote.wire_kb_per_unit", "KiB", ratio(float64(wire)/1024, ru))
	add("remote.claim_park_ms_per_unit", "ms", ratio(ms(x.total("remote.claim")), ru))
	add("remote.spec_fetches_per_job", "count", perJob(float64(len(x.byName["remote.spec"]))))

	add("service.submit_ms", "ms", x.meanMS("service.submit"))
	add("service.first_verdict_ms", "ms", x.meanMS("service.first_verdict"))
	add("service.result_ms", "ms", x.meanMS("service.result"))

	// The layer-share table: every request span split into components.
	comps := inprocShares
	if wl.daemon {
		comps = daemonShares
	}
	parts := map[string]time.Duration{}
	for _, r := range x.byName["request"] {
		lr.total += r.End - r.Start
		for _, c := range x.children[r.ID] {
			if c.Name == "search.run" {
				u := x.coveredByChildren(c, "search.unit")
				parts["search.unit"] += u
				parts["search.coord_self"] += c.End - c.Start - u
				continue
			}
			parts[c.Name] += c.End - c.Start
		}
	}
	lr.residual = lr.total
	for _, c := range comps {
		lr.shares = append(lr.shares, share{c, parts[c]})
		lr.residual -= parts[c]
	}
	for _, c := range append(append([]string{}, inprocShares...), daemonShares...) {
		add(shareMetric[c], "fraction", ratio(float64(parts[c]), float64(lr.total)))
	}
	add("layers.residual_frac", "fraction", ratio(float64(lr.residual), float64(lr.total)))
	add("trace.overhead_frac", "fraction", overhead)
	return lr
}

// table prints the layer-share table.
func (lr *layerReport) table(rep *report) {
	rep.linef("layer shares of the summed job wall (%.3fs):", lr.total.Seconds())
	for _, s := range lr.shares {
		rep.linef("  %-24s %9.3fs %6.1f%%", s.name, s.d.Seconds(), 100*float64(s.d)/float64(lr.total))
	}
	rep.linef("  %-24s %9.3fs %6.1f%%", "unexplained residual", lr.residual.Seconds(), 100*float64(lr.residual)/float64(lr.total))
	rep.linef("  %-24s %+.1f%% (traced vs untraced summed request wall)", "tracing overhead", 100*lr.overhead)
}
