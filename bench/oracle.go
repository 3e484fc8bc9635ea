package main

import (
	"fmt"
	"math"
	"regexp"
	"sync"

	"fpmix/internal/config"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// The oracle re-verifies every returned final configuration without the
// search's machinery: no dataflow-gated snippet streamlining, no linked
// programs, no compiled tier, no snapshots and no verdict caches. The
// module is instrumented fully checked and stepped one instruction at a
// time, and the output goes to the request's verifier. Image requests
// are judged against the benchmark's own relative-error check over a
// reference run stepped the same way.

// baseRun is a module's uninstrumented reference run.
type baseRun struct {
	out    []float64
	counts map[uint64]uint64 // executions per candidate instruction
	total  uint64            // executed candidate instructions
}

// oracle is safe for concurrent use.
type oracle struct {
	mu    sync.Mutex
	bases map[*prog.Module]*baseEntry
}

type baseEntry struct {
	once sync.Once
	run  *baseRun
	err  error
}

func newOracle() *oracle { return &oracle{bases: map[*prog.Module]*baseEntry{}} }

// stepRun executes m one Step at a time until HALT, failing on a fault
// or once maxSteps (0: vm.DefaultMaxSteps) steps have run.
func stepRun(m *prog.Module, maxSteps uint64) (*vm.Machine, error) {
	if maxSteps == 0 {
		maxSteps = vm.DefaultMaxSteps
	}
	mach, err := vm.New(m)
	if err != nil {
		return nil, err
	}
	for !mach.Halted() {
		if mach.Steps >= maxSteps {
			return nil, fmt.Errorf("oracle: %d-step budget exhausted", maxSteps)
		}
		if err := mach.Step(); err != nil {
			return nil, err
		}
	}
	return mach, nil
}

// base returns (and caches) the module's reference run.
func (o *oracle) base(m *prog.Module, maxSteps uint64) (*baseRun, error) {
	o.mu.Lock()
	e, ok := o.bases[m]
	if !ok {
		e = &baseEntry{}
		o.bases[m] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.run, e.err = referenceRun(m, maxSteps) })
	return e.run, e.err
}

func referenceRun(m *prog.Module, maxSteps uint64) (*baseRun, error) {
	mach, err := stepRun(m, maxSteps)
	if err != nil {
		return nil, fmt.Errorf("oracle: reference run: %w", err)
	}
	b := &baseRun{out: decodeOut(mach.Out), counts: map[uint64]uint64{}}
	counts := mach.Counts()
	for i, in := range m.Instructions() {
		if isa.IsCandidate(in.Op) && counts[i] > 0 {
			b.counts[in.Addr] = counts[i]
			b.total += counts[i]
		}
	}
	return b, nil
}

// check runs the final configuration and returns whether the verifier
// accepts it and its dynamic replacement percentage (share of executed
// candidate instructions the configuration runs in single precision).
// accept == nil judges with the rel check at tol against the reference.
func (o *oracle) check(m *prog.Module, maxSteps uint64, final *config.Config, accept func([]vm.OutVal) bool, tol float64) (pass bool, dynPct float64, err error) {
	b, err := o.base(m, maxSteps)
	if err != nil {
		return false, 0, err
	}
	eff := final.Effective()
	var single uint64
	for addr, n := range b.counts {
		if eff[addr] == config.Single {
			single += n
		}
	}
	if b.total > 0 {
		dynPct = 100 * float64(single) / float64(b.total)
	}
	inst, err := replace.Instrument(m, final, replace.InstrumentOptions{NoAnalysis: true})
	if err != nil {
		return false, dynPct, fmt.Errorf("oracle: instrument: %w", err)
	}
	mach, err := stepRun(inst, maxSteps)
	if err != nil {
		return false, dynPct, nil // a trap or runaway run fails verification
	}
	if accept != nil {
		return accept(mach.Out), dynPct, nil
	}
	return maxRelErr(b.out, decodeOut(mach.Out)) <= tol, dynPct, nil
}

// decodeOut reads program outputs as float64, widening values an
// instrumented program left in the replaced (flagged single) encoding.
func decodeOut(out []vm.OutVal) []float64 {
	vals := make([]float64, len(out))
	for i, o := range out {
		switch {
		case o.Kind == vm.OutF32:
			vals[i] = float64(math.Float32frombits(uint32(o.Bits)))
		case o.Kind == vm.OutI64:
			vals[i] = float64(int64(o.Bits))
		case uint32(o.Bits>>32) == replace.Flag:
			vals[i] = float64(math.Float32frombits(uint32(o.Bits)))
		default:
			vals[i] = math.Float64frombits(o.Bits)
		}
	}
	return vals
}

// maxRelErr is the rel verifier's measure: the largest elementwise
// |got-ref| / max(1, |ref|), +Inf on a NaN or a length mismatch.
func maxRelErr(ref, got []float64) float64 {
	if len(ref) != len(got) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range ref {
		if math.IsNaN(got[i]) {
			return math.Inf(1)
		}
		if e := math.Abs(got[i]-ref[i]) / math.Max(1, math.Abs(ref[i])); e > worst {
			worst = e
		}
	}
	return worst
}

var notesRE = regexp.MustCompile(`(?m)[ \t]*;[^\n]*`)

// stripNotes drops the exchange format's trailing annotations, which
// record how a verdict was reached, not what was decided.
func stripNotes(cfgText string) string { return notesRE.ReplaceAllString(cfgText, "") }

// judged is one request's classification: failed, or returned with a
// final the oracle accepts (verified) or rejects.
type judged struct {
	failed   bool
	verified bool
	dynPct   float64 // counted only when verified
	reason   string
}

// judge classifies a request from what the program reported and what the
// oracle found. ref is the note-stripped in-process reference final (""
// when the request is its own reference).
func judge(reqErr error, reportedPass, oraclePass bool, dynPct float64, final, ref string) judged {
	switch {
	case reqErr != nil:
		return judged{failed: true, reason: reqErr.Error()}
	case oraclePass != reportedPass:
		return judged{failed: true, reason: fmt.Sprintf("oracle says pass=%t, program reported final_pass=%t", oraclePass, reportedPass)}
	case ref != "" && stripNotes(final) != ref:
		return judged{failed: true, reason: "final differs from the in-process reference"}
	case !oraclePass:
		return judged{}
	}
	return judged{verified: true, dynPct: dynPct}
}
