package remote

import (
	"context"
	"encoding/hex"
	"errors"
	"runtime"
	"sync"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/search"
)

// WorkerOptions configure one out-of-process worker runtime.
type WorkerOptions struct {
	// Server is the daemon base URL (e.g. http://127.0.0.1:8606).
	Server string
	// Name is the worker's self-reported label, shown in
	// `fpmixctl workers`.
	Name string
	// Poll is the claim long-poll window (default 2s).
	Poll time.Duration
	// Parallel is how many evaluations run concurrently over the job's
	// shared UnitRunner (default runtime.NumCPU()).
	Parallel int
	// Batch is how many leases the worker keeps in hand — evaluating
	// plus prefetched — and the upper bound on verdicts per report RPC
	// (default fleet.DefaultBatch(Parallel)). The worker declares it at
	// registration; the daemon never leases it more.
	Batch int
	// Net arms deterministic network chaos on every RPC.
	Net *faultinject.NetInjector
	// Sabotage > 0 reports the first N claimed units as worker-side
	// evaluation failures instead of evaluating them — a chaos knob
	// that drives the daemon's requeue and quarantine paths.
	Sabotage int
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Run drives a worker until ctx is cancelled: register, then run the
// fleet's worker runtime (fleet.Runtime) under that identity over the
// wire. The wire protocol's failure recovery is built in: transient
// transport errors retry with jittered backoff (inside the client per
// RPC, and across the register/claim/report loops so a briefly
// unreachable daemon never sees a synchronized thundering herd from a
// large fleet), a 410 Gone (daemon restarted, worker retired)
// re-registers under a fresh identity, quarantine drains the claim
// loop while heartbeats keep the bench visible, and a cancellation
// mid-evaluation reports the remaining units Interrupted over a short
// grace context so the daemon requeues them immediately instead of
// waiting out the leases.
func Run(ctx context.Context, opts WorkerOptions) error {
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.NumCPU()
	}
	if opts.Batch <= 0 {
		opts.Batch = fleet.DefaultBatch(opts.Parallel)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	w := &worker{c: NewClient(opts.Server, opts.Net), opts: opts, runCtx: ctx, arts: &jobs.ArtifactStore{}}
	streak := 0
	for ctx.Err() == nil {
		reg, err := w.c.Register(ctx, opts.Name, opts.Parallel, opts.Batch)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			opts.Logf("register: %v", err)
			streak++
			w.c.Backoff(ctx, streak)
			continue
		}
		streak = 0
		opts.Logf("registered as %s (heartbeat %dms, expiry %dms, parallel %d, batch %d)",
			reg.ID, reg.HeartbeatMS, reg.ExpiryMS, opts.Parallel, opts.Batch)
		rt := fleet.Runtime{
			Parallel:  opts.Parallel,
			Batch:     opts.Batch,
			Poll:      opts.Poll,
			Heartbeat: time.Duration(reg.HeartbeatMS) * time.Millisecond,
			Backoff:   w.c.Backoff,
			Logf:      opts.Logf,
		}
		if err := rt.Serve(ctx, &conn{w: w, id: reg.ID}); err != nil {
			opts.Logf("identity %s gone; re-registering", reg.ID)
		}
	}
	return nil
}

// worker is the state of one Run that outlives its registrations.
type worker struct {
	c      *Client
	opts   WorkerOptions
	runCtx context.Context
	// arts holds the images this worker has evaluated units of, so a
	// job over an image it already knows builds only its runner.
	arts *jobs.ArtifactStore

	mu        sync.Mutex
	runners   []jobRunner // most recently used first, at most runnerCap
	sabotaged int
}

// jobRunner is a job's local evaluation stack.
type jobRunner struct {
	job string
	r   *search.UnitRunner
}

// runnerCap bounds the runner cache. A runner holds its job's engines
// and donor snapshots (~13 MB for a class-W kernel); a worker serving a
// long stream of jobs would otherwise keep every one. An evicted job
// that leases again pays one spec fetch and runner set-up; its image
// artifacts stay in the worker's artifact store.
const runnerCap = 4

// conn is the fleet.Conn of one registered identity: the wire protocol
// behind the runtime's claim, heartbeat and report calls, and local
// evaluation on runners built from daemon-served job specs.
type conn struct {
	w  *worker
	id string
}

func (c *conn) Claim(ctx context.Context, wait time.Duration, max, held int) ([]fleet.Lease, fleet.WorkerState, error) {
	resp, err := c.w.c.Claim(ctx, c.id, wait, max, held)
	if err != nil {
		return nil, "", err
	}
	leases := make([]fleet.Lease, 0, len(resp.Leases))
	for _, l := range resp.Leases {
		u, err := l.Unit.Unit()
		if err != nil {
			c.w.opts.Logf("claim: dropping lease of job %s: %v", l.Job, err)
			continue
		}
		leases = append(leases, fleet.Lease{Job: l.Job, Unit: u, Epoch: l.Epoch})
	}
	return leases, fleet.WorkerState(resp.State), nil
}

func (c *conn) Heartbeat(ctx context.Context, inflight int) error {
	_, err := c.w.c.Heartbeat(ctx, c.id, inflight)
	return err
}

// Report ships a batch with its unit keys hex-armored for JSON.
func (c *conn) Report(ctx context.Context, reports []fleet.Report) ([]bool, error) {
	req := ReportRequest{Worker: c.id, Reports: make([]UnitReport, len(reports))}
	for i, r := range reports {
		ur := UnitReport{Job: r.Job, Key: hex.EncodeToString([]byte(r.Key)), Epoch: r.Epoch, Verdict: r.Verdict}
		if r.Err != nil {
			ur.Error = r.Err.Error()
		}
		req.Reports[i] = ur
	}
	return c.w.c.Report(ctx, req)
}

// Evaluate runs a leased unit on the job's local runner. A failure
// caused by our own shutdown tearing the stack down is not a broken
// environment: it reports an interrupt (requeue, no strike).
func (c *conn) Evaluate(ctx context.Context, l fleet.Lease) (search.Verdict, error) {
	v, err := c.w.evaluate(ctx, l)
	if err != nil && ctx.Err() != nil {
		return search.Verdict{Interrupted: true}, nil
	}
	return v, err
}

func (w *worker) evaluate(ctx context.Context, l fleet.Lease) (search.Verdict, error) {
	if w.sabotageNext() {
		return search.Verdict{}, errors.New("sabotage: injected worker-side fault")
	}
	r, err := w.runnerFor(ctx, l.Job)
	if err != nil {
		return search.Verdict{}, err
	}
	return r.Evaluate(l.Unit)
}

// sabotageNext consumes one sabotage token if any remain.
func (w *worker) sabotageNext() bool {
	if w.opts.Sabotage <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sabotaged >= w.opts.Sabotage {
		return false
	}
	w.sabotaged++
	return true
}

// runnerFor returns the local evaluation stack for a job, building it
// on a cache miss over the worker's stored image artifacts with the
// daemon-served job spec's search options (jobs.Spec.SearchOptions,
// which the daemon's own runner uses too). Runners are cached for the
// runnerCap most recently used jobs (UnitRunner is safe for concurrent
// use, so all Parallel evaluators share one per job); job IDs are
// stable across daemon restarts and specs are immutable, so the cache
// never goes stale.
func (w *worker) runnerFor(ctx context.Context, job string) (*search.UnitRunner, error) {
	w.mu.Lock()
	r := w.touchLocked(job)
	w.mu.Unlock()
	if r != nil {
		return r, nil
	}
	spec, err := w.c.JobSpec(ctx, job)
	if err != nil {
		return nil, err
	}
	arts, err := w.arts.Get(spec)
	if err != nil {
		return nil, err
	}
	opts := spec.SearchOptions()
	opts.Context = w.runCtx
	r, err = search.NewUnitRunner(arts.Target(spec), opts)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev := w.touchLocked(job); prev != nil {
		return prev, nil // another evaluator built it first
	}
	w.runners = append([]jobRunner{{job, r}}, w.runners...)
	if len(w.runners) > runnerCap {
		clear(w.runners[runnerCap:]) // let the evicted runner be collected
		w.runners = w.runners[:runnerCap]
	}
	return r, nil
}

// touchLocked returns the job's cached runner, marking it most
// recently used, or nil; callers hold w.mu.
func (w *worker) touchLocked(job string) *search.UnitRunner {
	for i, jr := range w.runners {
		if jr.job == job {
			copy(w.runners[1:i+1], w.runners[:i])
			w.runners[0] = jr
			return jr.r
		}
	}
	return nil
}
