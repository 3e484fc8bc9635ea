package search

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"
	"sync"

	"fpmix/internal/config"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// EngineMode selects the evaluation backend of a search.
type EngineMode uint8

// Engine modes. The zero value enables the cached engine, so searches are
// incremental by default.
const (
	// EngineOn evaluates configurations with the cached evaluation
	// engine: snippets are compiled once per candidate instruction and
	// spliced per configuration, assembled modules are linked (branch
	// targets and cycle costs pre-resolved), machines are pooled and
	// reset instead of reallocated, and duplicate address sets are
	// memoized.
	EngineOn EngineMode = iota
	// EngineFork is the cached engine plus fork-point evaluation: one
	// donor run of the base configuration is snapshotted at every
	// candidate site's first execution, each sibling configuration is
	// assembled incrementally over a stable slotted layout and evaluated
	// from its fork-point snapshot, and deterministic failing verdicts
	// skip the confirmation re-run (replay would be exact). Verdicts and
	// the final configuration are byte-identical to EngineOn's; see
	// forkengine.go.
	EngineFork
)

// evalRequest is one evaluation of a configuration.
type evalRequest struct {
	// eff is the full effective-precision map to instrument with.
	eff map[uint64]config.Precision
	// ctx, when non-nil, bounds the run: cancellation stops the machine
	// with a vm.FaultCancelled reported in the outcome.
	ctx context.Context
	// trapAfter, when >0, arms an injected vm trap at that executed-step
	// count (fault injection drives this; runs shorter than the site
	// complete clean).
	trapAfter uint64
	// attempt is the settler's attempt ordinal (0 for the first try).
	// The fork engine evaluates retries — attempts after an injected
	// fault — from scratch, never from a snapshot.
	attempt int
}

// outcome is an evaluation's verdict. A faulted run (NaN-driven
// divergence, runaway loop, cancellation, injected trap) is a failing
// verdict with the fault attached, not a search error.
type outcome struct {
	pass  bool
	fault *vm.Fault
	// forked marks a verdict reached from a fork-point snapshot (or by
	// reusing the donor verdict outright); prefixSaved is the number of
	// shared-prefix instructions the fork skipped re-executing.
	forked      bool
	prefixSaved uint64
}

// evaluator runs one configuration and reports whether it passes the
// target's verification routine. Implementations must be safe for
// concurrent use by the worker pool.
type evaluator interface {
	evaluate(req evalRequest) (outcome, error)
}

// finish maps a completed machine run to an outcome: faults become
// failing verdicts carrying the fault, clean runs are verified.
func finish(t Target, m *vm.Machine, err error) (outcome, error) {
	if err != nil {
		var f *vm.Fault
		if errors.As(err, &f) {
			return outcome{fault: f}, nil
		}
		return outcome{}, err
	}
	return outcome{pass: t.Verify(m.Out)}, nil
}

// runMachine runs m under the request's cancellation bound, if any.
func runMachine(m *vm.Machine, req evalRequest) error {
	if req.ctx != nil {
		return m.RunContext(req.ctx)
	}
	return m.Run()
}

// newEvaluator builds the backend selected by mode. noCompile forces the
// engine's machines onto the per-step interpreter tier.
func newEvaluator(t Target, mode EngineMode, noCompile bool) (evaluator, error) {
	if mode == EngineFork {
		return newForkEngine(t, noCompile)
	}
	return newEngine(t, noCompile)
}

// machinePool is an engine's free list of reusable machines, at most
// one per concurrent evaluation. Unlike a sync.Pool, which the runtime
// registers process-wide and keeps alive one GC cycle past its last use,
// it is referenced only by its engine: a finished search's machines,
// and the engine with its donor snapshots, become garbage as soon as
// the runner is dropped.
type machinePool struct {
	mu   sync.Mutex
	free []*vm.Machine
}

func (p *machinePool) get() *vm.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return &vm.Machine{}
	}
	m := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return m
}

func (p *machinePool) put(m *vm.Machine) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// engine is the cached evaluation backend. It holds the per-instruction
// compiled snippet table (built once at search start) and a pool of
// reusable machines, one per active worker.
type engine struct {
	t     Target
	snips *replace.CompiledSnippets
	pool  machinePool
	// noCompile pins pooled machines to the per-step interpreter tier
	// (Options.NoCompile, fpsearch -nocompile).
	noCompile bool
}

func newEngine(t Target, noCompile bool) (*engine, error) {
	snips, err := replace.Precompile(t.Module, t.InstOpts)
	if err != nil {
		return nil, err
	}
	return &engine{t: t, snips: snips, noCompile: noCompile}, nil
}

func (e *engine) evaluate(req evalRequest) (outcome, error) {
	inst, err := e.snips.Instrument(req.eff)
	if err != nil {
		return outcome{}, err
	}
	lp, err := vm.Link(inst)
	if err != nil {
		return outcome{}, err
	}
	m := e.pool.get()
	defer e.pool.put(m)
	m.ResetTo(lp)
	m.MaxSteps = e.t.MaxSteps
	m.NoCompile = e.noCompile
	if req.trapAfter > 0 {
		// After ResetTo: the reset disarms any previously armed trap.
		m.InjectTrapAfter(req.trapAfter)
	}
	return finish(e.t, m, runMachine(m, req))
}

// effFor expands a piece's address set into the full effective-precision
// map an evaluator consumes.
func effFor(addrs []uint64, ignored map[uint64]bool) map[uint64]config.Precision {
	eff := make(map[uint64]config.Precision, len(addrs)+len(ignored))
	for _, a := range addrs {
		eff[a] = config.Single
	}
	for a := range ignored {
		eff[a] = config.Ignore
	}
	return eff
}

// addrKey builds the memoization key for an address set: the byte image
// of the sorted addresses. Piece address sets come out of the
// configuration tree in ascending order, so the sort is normally a no-op
// verification pass.
func addrKey(addrs []uint64) string {
	sorted := addrs
	if !sort.SliceIsSorted(addrs, func(i, j int) bool { return addrs[i] < addrs[j] }) {
		sorted = append([]uint64(nil), addrs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	b := make([]byte, 8*len(sorted))
	for i, a := range sorted {
		binary.LittleEndian.PutUint64(b[i*8:], a)
	}
	return string(b)
}
