package search

import (
	"sync/atomic"

	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// seedEval is the unmodified seed pipeline: full snippet regeneration
// (replace.InstrumentMap), layout and a fresh machine (vm.New) per
// evaluation. It shares nothing with the cached and fork engines, which
// makes it the oracle their verdicts are differentially tested against;
// tests plug it in under the settler through Options.testEval. calls
// counts the evaluations that reached it.
type seedEval struct {
	t     Target
	calls atomic.Int64
}

func (e *seedEval) evaluate(req evalRequest) (outcome, error) {
	e.calls.Add(1)
	inst, err := replace.InstrumentMap(e.t.Module, req.eff, e.t.InstOpts)
	if err != nil {
		return outcome{}, err
	}
	m, err := vm.New(inst)
	if err != nil {
		return outcome{}, err
	}
	m.MaxSteps = e.t.MaxSteps
	if req.trapAfter > 0 {
		m.InjectTrapAfter(req.trapAfter)
	}
	return finish(e.t, m, runMachine(m, req))
}
