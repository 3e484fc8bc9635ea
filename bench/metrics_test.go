package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	var ok []float64
	for i := 1; i <= 90; i++ {
		ok = append(ok, float64(i))
	}
	// 90 completed + 10 failed: the 10 failures are the slowest tenth,
	// so p90 is the slowest completed request and p91 a failure.
	p90, enough := percentile(ok, 10, 0.90)
	if p90 != 90 || !enough {
		t.Fatalf("p90 = %v (enough=%t), want 90 with 10 samples beyond", p90, enough)
	}
	if p, _ := percentile(ok, 10, 0.91); !math.IsInf(p, 1) {
		t.Fatalf("p91 = %v, want +Inf (a failed request)", p)
	}
	// A failure-only sample has an infinite median.
	if p, _ := percentile(nil, 30, 0.5); !math.IsInf(p, 1) {
		t.Fatalf("median of failures = %v, want +Inf", p)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		enough bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true},
	} {
		if _, enough := percentile(sample(c.n), 0, c.p); enough != c.enough {
			t.Errorf("n=%d p=%v: enough=%t, want %t", c.n, c.p, enough, c.enough)
		}
	}
	// Failures count toward the samples beyond.
	if _, enough := percentile(sample(95), 5, 0.9); !enough {
		t.Errorf("95 completed + 5 failed: p90 should have 10 samples beyond")
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	span := interval{0, 100 * ms}
	children := []interval{
		{10 * ms, 40 * ms}, // overlaps the next child: concurrent units
		{30 * ms, 60 * ms},
		{35 * ms, 50 * ms},   // nested inside the union
		{90 * ms, 120 * ms},  // runs past the parent's end
		{150 * ms, 160 * ms}, // entirely outside
	}
	// Covered: [10,60) + [90,100) = 60ms, so self = 40ms. Summing the
	// children instead would give 115ms and a negative self time.
	if got := selfTime(span, children); got != 40*ms {
		t.Fatalf("selfTime = %v, want 40ms", got)
	}
	if got := selfTime(span, nil); got != 100*ms {
		t.Fatalf("selfTime without children = %v, want 100ms", got)
	}
	if got := covered([]interval{{0, 100 * ms}, {0, 100 * ms}}, 0, 100*ms); got != 100*ms {
		t.Fatalf("identical children cover %v, want 100ms", got)
	}
}

func TestSpanIndexSelfAndShares(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 0)
	run := tr.begin("search.run", root, 0)
	a := tr.begin("search.unit", run, 0)
	b := tr.begin("search.unit", run, 0)
	time.Sleep(2 * time.Millisecond)
	tr.end(a, 0, 0)
	tr.end(b, 0, 0)
	tr.end(run, 0, 0)
	tr.end(root, 0, 0)
	x := indexSpans(tr.closed())
	runSpan := x.byName["search.run"][0]
	union := x.coveredByChildren(runSpan, "search.unit")
	if union > runSpan.End-runSpan.Start {
		t.Fatalf("unit union %v exceeds its parent %v", union, runSpan.End-runSpan.Start)
	}
	if self := x.self(runSpan); self != runSpan.End-runSpan.Start-union {
		t.Fatalf("self %v != span - union", self)
	}
}

func TestWorkloadMinimumsBackP90(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	for name, wl := range workloads {
		round := wl.newStream(1, ks).roundSize()
		if wl.minRequests < minSamples(0.9) || wl.minRequests%round != 0 {
			t.Errorf("%s: minRequests %d is not whole rounds of %d holding %d samples",
				name, wl.minRequests, round, minSamples(0.9))
		}
	}
}
