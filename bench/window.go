package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/search"
)

// outcome is one request's journey: submitted (or search.Run called) at
// start, final configuration in hand after wall.
type outcome struct {
	req   request
	start time.Time
	wall  time.Duration
	err   error
	final string          // exchange format, as returned
	sum   *search.Summary // the job summary: counts, final_pass, evals
}

// window is one measured stretch of closed-loop requests.
type window struct {
	outcomes []outcome // in stream order
	span     time.Duration
	cpu      time.Duration // process user+sys CPU over the window
}

// hardStop bounds a window however slow the program is, so that a run
// always ends well inside the time the benchmark is allowed.
const hardStop = 100 * time.Second

// runWindow drives callers closed-loop clients: each takes the next
// request from the stream once its previous one has finished. New
// requests start until dur has passed, at least minDone requests have
// been taken and the last round of the stream is complete, or, with
// limit > 0, until exactly limit requests have been taken. Whole rounds
// keep every run's request mix the same.
func runWindow(callers int, s *stream, dur time.Duration, minDone, limit int, do func(request) outcome) window {
	var (
		mu    sync.Mutex
		outs  []outcome
		taken atomic.Int64
		wg    sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	more := func() bool {
		el := time.Since(start)
		n := int(taken.Load())
		if limit > 0 {
			return n < limit
		}
		return el < hardStop && (el < dur || n < minDone || n%s.roundSize() != 0)
	}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !more() {
					mu.Unlock()
					return
				}
				taken.Add(1)
				req := s.take()
				mu.Unlock()
				o := do(req)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w := window{span: time.Since(start), cpu: cpuTime() - cpu0}
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.Index < outs[j].req.Index })
	w.outcomes = outs
	return w
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// verdict is the oracle's classification of one outcome.
type verdict struct {
	judged
	req request
}

// scoreAll re-verifies every outcome with the oracle and, where refs is
// non-nil, compares it to the in-process reference final.
func scoreAll(ks *kernelSet, orc *oracle, outs []outcome, refs func(request) (string, error)) []verdict {
	vs := make([]verdict, len(outs))
	parallel(len(outs), func(i int) {
		vs[i] = verdict{judged: scoreOne(ks, orc, outs[i], refs), req: outs[i].req}
	})
	return vs
}

func scoreOne(ks *kernelSet, orc *oracle, o outcome, refs func(request) (string, error)) judged {
	if o.err != nil {
		return judge(o.err, false, false, 0, "", "")
	}
	if o.sum == nil {
		return judge(fmt.Errorf("no job summary returned"), false, false, 0, "", "")
	}
	cfg, err := config.Read(strings.NewReader(o.final))
	if err != nil {
		return judge(fmt.Errorf("final does not parse: %w", err), false, false, 0, "", "")
	}
	b := ks.bench[o.req.Kernel]
	accept := b.Verify
	if o.req.Tol > 0 {
		accept = nil // the benchmark's own rel check against its reference run
	}
	pass, dyn, err := orc.check(b.Module, b.MaxSteps, cfg, accept, o.req.Tol)
	if err != nil {
		return judge(err, false, false, 0, "", "")
	}
	ref := ""
	if refs != nil {
		if ref, err = refs(o.req); err != nil {
			return judge(fmt.Errorf("in-process reference: %w", err), false, false, 0, "", "")
		}
	}
	return judge(nil, o.sum.FinalPass, pass, dyn, o.final, ref)
}

// endToEnd holds the user-visible metrics of one window.
type endToEnd struct {
	setupS                          float64
	attempted, failed, unverified   int
	jobsPerS, p50, p90              float64
	p50OK, p90OK                    bool
	cpuPerJob, rssMB, verifiedDynPc float64
}

func summarize(setupS float64, w window, vs []verdict, rssMB float64) endToEnd {
	e := endToEnd{setupS: setupS, attempted: len(vs), rssMB: rssMB}
	var ok []float64
	good, dyn := 0, 0.0
	for i, v := range vs {
		switch {
		case v.failed:
			e.failed++
		default:
			good++
			ok = append(ok, w.outcomes[i].wall.Seconds())
			if v.verified {
				dyn += v.dynPct
			} else {
				e.unverified++
			}
		}
	}
	e.p50, e.p50OK = percentile(ok, e.failed, 0.5)
	e.p90, e.p90OK = percentile(ok, e.failed, 0.9)
	e.jobsPerS = float64(good) / w.span.Seconds()
	if len(vs) > 0 {
		e.cpuPerJob = w.cpu.Seconds() / float64(len(vs))
	}
	if good > 0 {
		e.verifiedDynPc = dyn / float64(good)
	}
	return e
}

func (e endToEnd) failedFrac() float64 { return frac(e.failed, e.attempted) }

// unverifiedFrac is the share of returned finals the oracle rejects.
func (e endToEnd) unverifiedFrac() float64 { return frac(e.unverified, e.attempted-e.failed) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
