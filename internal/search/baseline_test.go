package search

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/vm"
)

// TestSuppliedBaselineMustVerify: a precomputed baseline skips the
// profiling run but not its check — outputs that fail the target's own
// verification still abort the search.
func TestSuppliedBaselineMustVerify(t *testing.T) {
	m := mixedProgram(t)
	b, err := RunBaseline(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Baseline{Counts: b.Counts, Out: append([]vm.OutVal(nil), b.Out...)}
	bad.Out[0] = vm.OutVal{Kind: bad.Out[0].Kind, Bits: bad.Out[0].Bits + 1<<40}
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10), Baseline: bad}
	_, err = Run(tgt, Options{})
	if err == nil || !strings.Contains(err.Error(), "baseline run fails its own verification") {
		t.Fatalf("failing supplied baseline: got error %v", err)
	}
}

// TestSuppliedBaselineIdentical: a search given the baseline its own
// profiling run would compute reaches the same result, and uses the
// supplied counts instead of running the program again.
func TestSuppliedBaselineIdentical(t *testing.T) {
	ep, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	m := mixedProgram(t)
	targets := map[string]Target{
		"mixed": {Module: m, Verify: refVerify(t, m, 1e-10)},
		"ep.W":  {Module: ep.Module, Verify: ep.Verify, MaxSteps: ep.MaxSteps, Base: ep.Base},
	}
	for name, tgt := range targets {
		t.Run(name, func(t *testing.T) {
			opts := Options{Workers: 2, BinarySplit: true, Prioritize: true, Engine: EngineFork}
			want, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunBaseline(tgt.Module, tgt.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			tgt.Baseline = b
			got, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Tested != want.Tested || got.Final.String() != want.Final.String() || got.Stats != want.Stats {
				t.Fatalf("with a supplied baseline: tested %d, stats %+v, final\n%s\nwithout: tested %d, stats %+v, final\n%s",
					got.Tested, got.Stats, got.Final, want.Tested, want.Stats, want.Final)
			}
			if reflect.ValueOf(got.Profile).UnsafePointer() != reflect.ValueOf(b.Counts).UnsafePointer() {
				t.Error("search profiled the program again instead of using the supplied counts")
			}
		})
	}
}

// TestFinishedEngineReleasedAfterOneGC: once a runner is dropped, its
// fork engine — pooled machines and donor snapshots included — is
// garbage at the very next collection. An engine whose machines sat in
// a sync.Pool survived until a second one, and with little other
// garbage around, finished jobs' engines piled up between collections.
func TestFinishedEngineReleasedAfterOneGC(t *testing.T) {
	released := evaluateAndDrop(t)
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped runner's fork engine survived a full collection")
	}
}

// evaluateAndDrop evaluates one forked unit on a fresh runner, sets a
// finalizer on the runner's fork engine and drops every reference to
// both; the returned channel closes when the engine is collected.
//
//go:noinline
func evaluateAndDrop(t *testing.T) <-chan struct{} {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	r, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	var site uint64
	for _, a := range m.Candidates() {
		if b.Counts[a] > 0 {
			site = a
			break
		}
	}
	addrs := []uint64{site}
	v, err := r.Evaluate(newEvalUnit(addrKey(addrs), "one site", config.KindInsn, addrs, false))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Forked {
		t.Fatal("unit did not run from a fork-point snapshot")
	}
	done := make(chan struct{})
	runtime.SetFinalizer(r.st.ev.(*forkEngine), func(*forkEngine) { close(done) })
	return done
}
