// Command fpmixbench is fpmix's end-to-end benchmark: it generates a
// seeded stream of search requests, drives one of three workloads
// closed-loop for a measured window, re-verifies every returned final
// configuration with an independent oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through bench/run.sh, which builds it from source; see
// bench/README.md for the workloads, the metrics and how the layers are
// timed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "request-stream seed")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for stores, traces and recorded counts")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: fpmixbench --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpmixbench: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	wl     *workload
	seed   int64
	window time.Duration
	trace  bool
	out    string
}

// nSetups is how many times a run sets its system up; setup_s is the
// median, so one slow set-up does not decide it.
const nSetups = 5

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a run prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	lines     []string // human-readable report, printed before the JSON
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpmixbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(data))
}

// run executes one benchmark invocation.
func run(cfg runConfig) (*report, error) {
	scratch := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rep := &report{}
	rep.linef("fpmix benchmark: workload=%s seed=%d window=%v trace=%t callers=%d nproc=%d",
		cfg.wl.name, cfg.seed, cfg.window, cfg.trace, cfg.wl.callers, runtime.NumCPU())
	if cfg.trace {
		return rep, runTraced(cfg, scratch, rep)
	}
	return rep, runTimed(cfg, scratch, rep)
}

// setUp builds the kernels and starts the system under test nSetups
// times, keeping the last; the median set-up time is setup_s.
func setUp(cfg runConfig, scratch string, tr *tracer) (*kernelSet, sut, float64, error) {
	var times []float64
	var ks *kernelSet
	var s sut
	for i := 0; i < nSetups; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if ks, err = buildKernels(); err != nil {
			return nil, nil, 0, err
		}
		if s, err = cfg.wl.start(filepath.Join(scratch, fmt.Sprintf("store-%d", i)), tr); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return ks, s, median(times), nil
}

// runTimed is the untraced run: set up, measure one window, verify.
func runTimed(cfg runConfig, scratch string, rep *report) error {
	ks, s, setupS, err := setUp(cfg, scratch, nil)
	if err != nil {
		return err
	}
	st := cfg.wl.newStream(cfg.seed, ks)
	runtime.GC()
	w := runWindow(cfg.wl.callers, st, cfg.window, cfg.wl.minRequests, 0, func(r request) outcome { return s.do(r, nil) })
	rss := peakRSSMB()
	var ps *poolStats
	if d, ok := s.(*daemon); ok {
		ps = statsOf(d)
	}
	s.stop()

	t := time.Now()
	vs := cfg.wl.score(ks, newOracle(), w.outcomes)
	scoreS := time.Since(t).Seconds()
	e := summarize(setupS, w, vs, rss)
	rep.attempted, rep.failed = e.attempted, e.failed
	rep.correct = e.failed == 0
	rep.metrics = []metric{
		{"setup_s", "s", e.setupS},
		{"jobs_per_s", "1/s", e.jobsPerS},
		{"job_p50_s", "s", finite(e.p50)},
		{"job_p90_s", "s", finite(e.p90)},
		{"cpu_s_per_job", "s", e.cpuPerJob},
		{"peak_rss_mb", "MB", e.rssMB},
		{"verified_dyn_pct", "%", e.verifiedDynPc},
		{"verified_frac", "fraction", 1 - e.unverifiedFrac()},
		{"ok_frac", "fraction", 1 - e.failedFrac()},
	}
	rep.linef("window %.2fs, %d requests, cpu %.2fs; verification after the window %.2fs",
		w.span.Seconds(), len(w.outcomes), w.cpu.Seconds(), scoreS)
	for _, m := range rep.metrics {
		rep.linef("  %-18s %14.6g %s", m.name, m.value, m.unit)
	}
	rep.linef("  %-18s %14.6g fraction (%d/%d)", "failed_frac", e.failedFrac(), e.failed, e.attempted)
	rep.linef("  %-18s %14.6g fraction (%d/%d returned)", "unverified_frac", e.unverifiedFrac(), e.unverified, e.attempted-e.failed)
	if !e.p50OK || !e.p90OK {
		rep.linef("NOTE: fewer than %d samples beyond a reported percentile (%d requests)", minBeyond, e.attempted)
	}
	if ps != nil && cfg.wl.name == "fleet-remote" {
		checkUnitTotal(rep, ps, w.outcomes)
	}
	reportFailures(rep, vs)
	checkCounts(cfg, rep, w.outcomes, vs, nil)
	return nil
}

// finite reports a failed request's +Inf latency as the request timeout,
// since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return requestTimeout.Seconds()
	}
	return v
}

// reportFailures lists every failed request as a finding.
func reportFailures(rep *report, vs []verdict) {
	for _, v := range vs {
		if v.failed {
			rep.linef("FINDING: request %d (%s) failed: %s", v.req.Index, v.req.label(), v.reason)
		}
	}
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}
