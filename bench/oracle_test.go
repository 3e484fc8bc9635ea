package main

import (
	"strings"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/jobs"
	"fpmix/internal/search"
)

// ftRequest is a fast image request: ft.W under a tight rel verifier,
// where running the whole module in single precision fails.
func ftRequest(t *testing.T, ks *kernelSet) request {
	t.Helper()
	b := ks.bench["ft"]
	return request{
		Kernel: "ft", Tol: 1e-9, Gran: "insn",
		Spec: jobs.Spec{
			Image:    ks.image["ft"],
			Verifier: &jobs.VerifierSpec{Mode: "rel", Tol: 1e-9},
			MaxSteps: b.MaxSteps,
		},
	}
}

// flagged returns ft.W's configuration with the module flagged p.
func flagged(t *testing.T, ks *kernelSet, p config.Precision) string {
	t.Helper()
	c, err := config.FromModule(ks.bench["ft"].Module)
	if err != nil {
		t.Fatal(err)
	}
	c.SetAll(p)
	return c.String()
}

func TestOracleAcceptsGenuineFinal(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	req := ftRequest(t, ks)
	o := inprocOutcome(req, nil)
	if o.err != nil {
		t.Fatal(o.err)
	}
	refs := func(request) (string, error) { return stripNotes(o.final), nil }
	v := scoreOne(ks, newOracle(), o, refs)
	if v.failed {
		t.Fatalf("genuine in-process final counted as failed: %s", v.reason)
	}
	if v.verified != o.sum.FinalPass {
		t.Fatalf("oracle verified=%t, search reported final_pass=%t", v.verified, o.sum.FinalPass)
	}
}

// A corrupted final: the program claims a passing configuration that
// does not pass. The oracle must catch it and the request must count
// in failed_frac.
func TestOracleCountsCorruptedFinal(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	req := ftRequest(t, ks)
	o := outcome{
		req: req, wall: time.Millisecond,
		final: flagged(t, ks, config.Single),
		sum:   &search.Summary{FinalPass: true},
	}
	v := scoreOne(ks, newOracle(), o, nil)
	if !v.failed || !strings.Contains(v.reason, "oracle") {
		t.Fatalf("corrupted final: failed=%t reason=%q, want an oracle failure", v.failed, v.reason)
	}
	assertCountedFailed(t, o, v)
}

// A mismatched final: a configuration that verifies and is reported
// consistently, but is not what the in-process search returns for the
// same spec. It must count in failed_frac.
func TestOracleCountsMismatchedFinal(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	req := ftRequest(t, ks)
	ref := inprocOutcome(req, nil)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	o := outcome{
		req: req, wall: time.Millisecond,
		final: flagged(t, ks, config.Double), // all double: verifies, but is not the search's answer
		sum:   &search.Summary{FinalPass: true},
	}
	refs := func(request) (string, error) { return stripNotes(ref.final), nil }
	v := scoreOne(ks, newOracle(), o, refs)
	if !v.failed || !strings.Contains(v.reason, "reference") {
		t.Fatalf("mismatched final: failed=%t reason=%q, want a reference mismatch", v.failed, v.reason)
	}
	assertCountedFailed(t, o, v)
}

func assertCountedFailed(t *testing.T, o outcome, v judged) {
	t.Helper()
	w := window{outcomes: []outcome{o}, span: time.Second}
	e := summarize(0, w, []verdict{{judged: v, req: o.req}}, 0)
	if e.failed != 1 || e.failedFrac() != 1 {
		t.Fatalf("failed=%d failed_frac=%v, want the request counted as failed", e.failed, e.failedFrac())
	}
	if e.jobsPerS != 0 {
		t.Fatalf("jobs_per_s = %v: a failed request is not a correct result", e.jobsPerS)
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	ks, err := buildKernels()
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(int64, *kernelSet) *stream{imageStream, kernelStream} {
		a, b, c := mk(7, ks), mk(7, ks), mk(8, ks)
		same := true
		for i := 0; i < 50; i++ {
			ra, rb, rc := a.take(), b.take(), c.take()
			if ra.key() != rb.key() || ra.Index != i {
				t.Fatalf("request %d: %s vs %s", i, ra.key(), rb.key())
			}
			if ra.key() != rc.key() {
				same = false
			}
			if ra.Tol != 0 && (ra.Tol < 1e-9 || ra.Tol > 1e-3) {
				t.Fatalf("tolerance %g outside [1e-9, 1e-3]", ra.Tol)
			}
		}
		if same {
			t.Fatalf("seeds 7 and 8 dealt the same stream")
		}
	}
}
