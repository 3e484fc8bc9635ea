package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpmix/internal/dataflow"
	"fpmix/internal/errbound"
	"fpmix/internal/jobs"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

// requestTimeout bounds one request; a request past it counts as failed.
const requestTimeout = 60 * time.Second

// searchOptions are the options the daemon's job executor passes to
// search.Run, with Workers = nproc for the in-process caller.
func searchOptions(spec jobs.Spec, sh *shadow.Profile, sensTol float64, ctx context.Context) search.Options {
	return search.Options{
		Workers:       runtime.NumCPU(),
		Granularity:   spec.Kind(),
		BinarySplit:   true,
		Prioritize:    true,
		Engine:        search.EngineFork,
		Shadow:        sh,
		SensThreshold: sensTol,
		Context:       ctx,
	}
}

// searchInProc runs one request the library way: build the target from
// the spec, collect its shadow profile, search. With a tracer it times
// each layer it calls and injects the analyses it timed (dataflow into
// the target, error bounds into the options) so the search does not
// repeat them; unit evaluation then goes through a traced UnitRunner.
func searchInProc(spec jobs.Spec, tr *tracer, idx int) (*search.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := tr.begin("request", -1, idx)
	defer tr.end(root, 0, 0)

	sp := tr.begin("jobs.build", root, idx)
	tg, err := spec.Build()
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	sensTol, err := spec.SensTol()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("shadow.collect", root, idx)
	sh, err := shadow.Collect(spec.Name(), tg.Module, tg.MaxSteps)
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	opts := searchOptions(spec, sh, sensTol, ctx)
	run := -1
	if tr != nil {
		sp = tr.begin("dataflow.analyze", root, idx)
		df, err := dataflow.Analyze(tg.Module)
		tr.end(sp, 0, 0)
		if err == nil {
			tg.InstOpts.Analysis = df
		}
		sp = tr.begin("errbound.analyze", root, idx)
		an, err := errbound.Analyze(tg.Module, errbound.Options{})
		tr.end(sp, 0, 0)
		if err == nil && an.Converged {
			opts.Bounds = an
		} else {
			// The search's own lazy analysis would fail the same way and
			// prove nothing.
			opts.NoProve = true
		}
		sp = tr.begin("search.runner_setup", root, idx)
		runner, err := search.NewUnitRunner(tg, search.Options{Engine: opts.Engine, Context: ctx})
		tr.end(sp, 0, 0)
		if err != nil {
			return nil, err
		}
		run = tr.begin("search.run", root, idx)
		opts.Units = &tracedUnits{r: runner, tr: tr, parent: run, idx: idx}
	}
	res, err := search.Run(tg, opts)
	tr.end(run, 0, 0)
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, fmt.Errorf("search interrupted after %v", requestTimeout)
	}
	return res, nil
}

// tracedUnits times every evaluation unit the search hands out.
type tracedUnits struct {
	r      *search.UnitRunner
	tr     *tracer
	parent int
	idx    int
}

func (u *tracedUnits) EvaluateUnit(unit search.EvalUnit) (search.Verdict, error) {
	sp := u.tr.begin("search.unit", u.parent, u.idx)
	v, err := u.r.Evaluate(unit)
	u.tr.end(sp, 0, 0)
	return v, err
}

// inprocOutcome runs one search-inproc request.
func inprocOutcome(req request, tr *tracer) outcome {
	o := outcome{req: req, start: time.Now()}
	res, err := searchInProc(req.Spec, tr, req.Index)
	o.wall = time.Since(o.start)
	if err != nil {
		o.err = err
		return o
	}
	o.final = res.Final.String()
	o.sum = search.Summarize(req.Spec.Name(), res)
	return o
}

// referenceFinals are the in-process reference finals (notes stripped)
// of daemon requests, one search per distinct spec.
type referenceFinals map[string]refFinal

type refFinal struct {
	final string
	err   error
}

// references searches every distinct spec of outs in process, nproc
// searches at a time.
func references(outs []outcome) referenceFinals {
	var reqs []request
	seen := map[string]bool{}
	for _, o := range outs {
		if k := o.req.key(); !seen[k] {
			seen[k] = true
			reqs = append(reqs, o.req)
		}
	}
	got := make([]refFinal, len(reqs))
	parallel(len(reqs), func(i int) {
		res, err := searchInProc(reqs[i].Spec, nil, reqs[i].Index)
		if err != nil {
			got[i].err = err
			return
		}
		got[i].final = stripNotes(res.Final.String())
	})
	refs := referenceFinals{}
	for i, r := range reqs {
		refs[r.key()] = got[i]
	}
	return refs
}

func (r referenceFinals) get(req request) (string, error) {
	f := r[req.key()]
	return f.final, f.err
}

// parallel calls f(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
