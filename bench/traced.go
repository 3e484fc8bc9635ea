package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/errbound"
	"fpmix/internal/replace"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// runTraced is the traced run. Pass A runs untraced for half the window
// and fixes the request count K; pass B sets the system up afresh and
// runs the same K requests traced. The per-layer metrics come from pass
// B's spans, and the difference between the passes' summed request
// walls is the tracing overhead.
func runTraced(cfg runConfig, scratch string, rep *report) error {
	ks, err := buildKernels()
	if err != nil {
		return err
	}
	s, err := cfg.wl.start(filepath.Join(scratch, "store-a"), nil)
	if err != nil {
		return err
	}
	runtime.GC()
	wa := runWindow(cfg.wl.callers, cfg.wl.newStream(cfg.seed, ks), cfg.window/2, digestRequests, 0,
		func(r request) outcome { return s.do(r, nil) })
	s.stop()

	tr := newTracer()
	s, err = cfg.wl.start(filepath.Join(scratch, "store-b"), tr)
	if err != nil {
		return err
	}
	var q *queueSampler
	if d, ok := s.(*daemon); ok {
		q = sampleQueue(d, 2*time.Millisecond)
	}
	runtime.GC()
	wb := runWindow(cfg.wl.callers, cfg.wl.newStream(cfg.seed, ks), 0, 0, len(wa.outcomes),
		func(r request) outcome { return s.do(r, tr) })
	var ps *poolStats
	if d, ok := s.(*daemon); ok {
		ps = statsOf(d)
		ps.queueMean = q.stop()
	}
	s.stop()

	var side map[string]float64
	if cfg.wl.daemon {
		side = sideCalls(wb.outcomes, tr)
	}
	vmc, err := measureVM(ks)
	if err != nil {
		return err
	}
	orc := newOracle()
	va := cfg.wl.score(ks, orc, wa.outcomes)
	vb := cfg.wl.score(ks, orc, wb.outcomes)
	ea := summarize(0, wa, va, 0)
	eb := summarize(0, wb, vb, 0)
	rep.attempted = ea.attempted + eb.attempted
	rep.failed = ea.failed + eb.failed
	rep.correct = rep.failed == 0

	overhead := (sumWall(wb.outcomes) - sumWall(wa.outcomes)) / sumWall(wa.outcomes)
	lm := layerMetrics(cfg.wl, wb, tr, ps, side, vmc, overhead)
	rep.metrics = lm.metrics
	rep.linef("pass A (untraced): %d requests in %.2fs; pass B (traced): %d requests in %.2fs; tracing overhead %+.1f%% of summed request wall",
		len(wa.outcomes), wa.span.Seconds(), len(wb.outcomes), wb.span.Seconds(), 100*overhead)
	lm.table(rep)
	for _, m := range rep.metrics {
		rep.linef("  %-30s %14.6g %s", m.name, m.value, m.unit)
	}
	if ps != nil && cfg.wl.name == "fleet-remote" {
		checkUnitTotal(rep, ps, wb.outcomes)
	}
	reportFailures(rep, va)
	reportFailures(rep, vb)
	checkCounts(cfg, rep, wb.outcomes, vb, vmc)
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.wl.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.linef("spans: %s", path)
	return nil
}

func sumWall(outs []outcome) float64 {
	t := 0.0
	for _, o := range outs {
		t += o.wall.Seconds()
	}
	return t
}

// checkUnitTotal pins the remote fleet's delivered-unit total to the
// jobs' own evaluated-unit counts: every evaluation crossed the wire
// exactly once.
func checkUnitTotal(rep *report, ps *poolStats, outs []outcome) {
	done, evaluated := 0, 0
	for _, w := range ps.workers {
		if w.Remote {
			done += w.Done
		}
	}
	for _, o := range outs {
		if o.sum != nil {
			evaluated += o.sum.Provenance["evaluated"]
		}
	}
	if done != evaluated {
		rep.linef("FINDING: remote workers delivered %d units, the jobs evaluated %d", done, evaluated)
		rep.correct = false
		return
	}
	rep.linef("fleet unit total: %d units delivered remotely = units the jobs evaluated", done)
}

// sideCalls times, in the benchmark's process, the public calls a
// daemon job makes before evaluation (the daemon's internals are not
// split): target build, shadow profile, dataflow and error-bound
// analyses and unit-runner set-up, once per kernel, on the first spec of
// that kernel the pass sent. It returns each layer's mean per job,
// weighted by how often the pass sent each kernel.
func sideCalls(outs []outcome, tr *tracer) map[string]float64 {
	first := map[string]request{}
	freq := map[string]int{}
	for _, o := range outs {
		if _, ok := first[o.req.Kernel]; !ok {
			first[o.req.Kernel] = o.req
		}
		freq[o.req.Kernel]++
	}
	out := map[string]float64{}
	for _, k := range searchKernels {
		req, ok := first[k]
		if !ok {
			continue
		}
		w := float64(freq[k]) / float64(len(outs))
		root := tr.begin("side", -1, req.Index)
		add := func(name string, f func() error) {
			sp := tr.begin(name, root, req.Index)
			t := time.Now()
			err := f()
			d := time.Since(t)
			tr.end(sp, 0, 0)
			if err == nil {
				out[name] += w * ms(d)
			}
		}
		var tg search.Target
		add("jobs.build", func() (err error) { tg, err = req.Spec.Build(); return })
		if tg.Module == nil {
			tr.end(root, 0, 0)
			continue
		}
		add("shadow.collect", func() error { _, err := shadow.Collect(req.Spec.Name(), tg.Module, tg.MaxSteps); return err })
		add("dataflow.analyze", func() error { _, err := dataflow.Analyze(tg.Module); return err })
		add("errbound.analyze", func() error { _, err := errbound.Analyze(tg.Module, errbound.Options{}); return err })
		add("search.runner_setup", func() error {
			_, err := search.NewUnitRunner(tg, search.Options{Engine: search.EngineFork})
			return err
		})
		tr.end(root, 0, 0)
	}
	return out
}

// vmStats are the VM layer's figures over the seven class-W modules.
type vmStats struct {
	baseSteps  uint64  // steps of one base run of each module, summed
	mstepsPerS float64 // compiled-tier speed on the base modules
	overheadX  float64 // modelled cycles, all-double instrumented / original
}

// vmRepeats is how many timed base runs each module gets.
const vmRepeats = 3

func measureVM(ks *kernelSet) (*vmStats, error) {
	v := &vmStats{}
	var steps uint64
	var wall time.Duration
	var baseCycles, instCycles uint64
	for _, k := range searchKernels {
		b := ks.bench[k]
		lp, err := vm.Link(b.Module)
		if err != nil {
			return nil, err
		}
		for i := 0; i < vmRepeats; i++ {
			m := lp.NewMachine()
			m.MaxSteps = b.MaxSteps
			t := time.Now()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("%s.W base run: %w", k, err)
			}
			wall += time.Since(t)
			var n uint64
			for _, c := range m.Counts() {
				n += c
			}
			steps += n
			if i == 0 {
				v.baseSteps += n
				baseCycles += m.Cycles
			}
		}
		cfgn, err := config.FromModule(b.Module)
		if err != nil {
			return nil, err
		}
		inst, err := replace.Instrument(b.Module, cfgn, replace.InstrumentOptions{})
		if err != nil {
			return nil, err
		}
		ilp, err := vm.Link(inst)
		if err != nil {
			return nil, err
		}
		m := ilp.NewMachine()
		m.MaxSteps = b.MaxSteps
		if err := m.Run(); err != nil {
			return nil, fmt.Errorf("%s.W all-double run: %w", k, err)
		}
		instCycles += m.Cycles
	}
	v.mstepsPerS = float64(steps) / wall.Seconds() / 1e6
	v.overheadX = float64(instCycles) / float64(baseCycles)
	return v, nil
}
