package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fpmix/internal/search"
)

// Lease is one unit leased to a worker. The (owner, epoch) pair is the
// idempotency token: the pool accepts exactly one report carrying it,
// so a unit re-delivered after a partition or a duplicated report RPC
// can never double-count.
type Lease struct {
	Job   string
	Unit  search.EvalUnit
	Epoch int
	// ev is the job's registered evaluator: in-process workers run on
	// it, and it never crosses the wire.
	ev Evaluator
}

// Report is one unit's outcome inside a report batch: a verdict, or
// the error that prevented one.
type Report struct {
	Job     string
	Key     string
	Epoch   int
	Verdict search.Verdict
	Err     error
}

// Conn is a worker runtime's link to the pool under one registered
// identity. An in-process worker calls the pool directly; a remote
// worker (internal/remote) speaks the wire protocol. Claim, Heartbeat
// and Report answer ErrUnknownWorker once the pool has retired the
// identity.
type Conn interface {
	// Claim long-polls for up to max new leases; held is how many leases
	// the worker already holds (see Pool.Claim).
	Claim(ctx context.Context, wait time.Duration, max, held int) ([]Lease, WorkerState, error)
	// Heartbeat refreshes the lease clock, carrying the number of
	// evaluations running right now.
	Heartbeat(ctx context.Context, inflight int) error
	// Report delivers a batch of outcomes; accepted[i] answers reports[i].
	Report(ctx context.Context, reports []Report) ([]bool, error)
	// Evaluate runs one leased unit to a verdict.
	Evaluate(ctx context.Context, l Lease) (search.Verdict, error)
}

// DefaultBatch is the lease batch of a worker that declares none: one
// round of evaluations running plus one prefetched, never below 4 so a
// single-threaded worker still amortizes its RPCs.
func DefaultBatch(parallel int) int {
	if b := 2 * parallel; b > 4 {
		return b
	}
	return 4
}

// Runtime is the one worker loop every worker runs, in-process or
// remote: a claim loop keeps up to Batch leases in hand, Parallel
// evaluators drain them, a reporter ships verdicts back in batches of
// up to Batch, and a heartbeat refreshes the lease clock — so RPC
// round-trips overlap with evaluation instead of serializing with it.
type Runtime struct {
	Parallel  int           // concurrent evaluations (positive)
	Batch     int           // leases held at once and verdicts per report (positive)
	Poll      time.Duration // claim long-poll window (default 2s)
	Heartbeat time.Duration // heartbeat interval (default 1s)
	// Backoff waits before retrying after a failed claim or report
	// (attempt counts the failures in a row; nil waits Poll).
	Backoff func(ctx context.Context, attempt int) error
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// reportedCap bounds the reported-epoch memory; past it the map resets
// wholesale (the worst a forgotten entry costs is one wasted duplicate
// evaluation whose report the pool discards).
const reportedCap = 4096

// session is the runtime state of one Serve call.
type session struct {
	rt Runtime
	c  Conn

	gone     chan struct{} // closed once the pool retired the identity
	goneOnce sync.Once
	slot     chan struct{} // pulsed when reported units free batch room

	evals atomic.Int32 // evaluations running right now

	mu       sync.Mutex
	held     map[string]struct{} // job\x00key of leases claimed and not yet reported
	reported map[string]int      // job\x00key → highest epoch already reported
}

// Serve runs the worker under one identity until ctx ends (returns nil)
// or the pool retires the identity (returns ErrUnknownWorker). Units
// still in hand when it stops are evaluated and reported first.
func (rt Runtime) Serve(ctx context.Context, c Conn) error {
	if rt.Poll <= 0 {
		rt.Poll = 2 * time.Second
	}
	if rt.Heartbeat <= 0 {
		rt.Heartbeat = time.Second
	}
	if rt.Logf == nil {
		rt.Logf = func(string, ...any) {}
	}
	if rt.Backoff == nil {
		rt.Backoff = func(ctx context.Context, _ int) error { return sleep(ctx, rt.Poll) }
	}
	s := newSession(rt, c)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go s.beat(hctx)

	// Buffers are sized so neither evaluators nor the reporter can
	// block the pipeline: at most Batch leases are ever held, so at
	// most Batch entries can sit in pending or results at once.
	pending := make(chan Lease, 2*rt.Batch)
	results := make(chan Report, 2*rt.Batch+rt.Parallel)
	var evals sync.WaitGroup
	for i := 0; i < rt.Parallel; i++ {
		evals.Add(1)
		go func() {
			defer evals.Done()
			for l := range pending {
				results <- s.evalOne(ctx, l)
			}
		}()
	}
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		s.reportLoop(ctx, results)
	}()

	err := s.claimLoop(ctx, pending)
	close(pending)
	evals.Wait()
	close(results)
	<-repDone
	return err
}

func newSession(rt Runtime, c Conn) *session {
	return &session{
		rt: rt, c: c,
		gone:     make(chan struct{}),
		slot:     make(chan struct{}, 1),
		held:     make(map[string]struct{}),
		reported: make(map[string]int),
	}
}

func (s *session) markGone() { s.goneOnce.Do(func() { close(s.gone) }) }

// heldCount is the number of leases in the worker's hands.
func (s *session) heldCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// addHeld records a delivered lease; false means the worker already
// holds it (a claim re-delivers held leases whenever the pool holds
// more than the worker knows of, so duplicates are routine, not an
// error) or already reported this epoch of it — a claim response
// composed while the report was in flight re-delivers a lease the pool
// has since retired, and evaluating that stale copy would burn a whole
// unit of CPU on a report the pool can only discard. A real
// reassignment bumps the epoch, so genuinely re-leased units still
// evaluate.
func (s *session) addHeld(l Lease) bool {
	k := l.Job + "\x00" + l.Unit.Key
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.held[k]; ok {
		return false
	}
	if e, ok := s.reported[k]; ok && e >= l.Epoch {
		return false
	}
	s.held[k] = struct{}{}
	return true
}

// dropHeld releases reported leases, remembers the epochs they carried
// and pulses the claim loop.
func (s *session) dropHeld(reports []Report) {
	s.mu.Lock()
	for _, r := range reports {
		k := r.Job + "\x00" + r.Key
		delete(s.held, k)
		if len(s.reported) >= reportedCap {
			s.reported = make(map[string]int)
		}
		if e, ok := s.reported[k]; !ok || r.Epoch > e {
			s.reported[k] = r.Epoch
		}
	}
	s.mu.Unlock()
	select {
	case s.slot <- struct{}{}:
	default:
	}
}

// claimLoop prefetches leases while evaluations run: whenever the
// worker holds fewer than Batch units it claims the difference,
// otherwise it waits for the reporter to free room. Returns nil on
// context end, ErrUnknownWorker when the pool retired the identity.
func (s *session) claimLoop(ctx context.Context, pending chan<- Lease) error {
	streak := 0
	for {
		held := s.heldCount()
		want := s.rt.Batch - held
		if want <= 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-s.gone:
				return ErrUnknownWorker
			case <-s.slot:
			}
			continue
		}
		leases, state, err := s.c.Claim(ctx, s.rt.Poll, want, held)
		if errors.Is(err, ErrUnknownWorker) {
			return ErrUnknownWorker
		}
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			s.rt.Logf("claim: %v", err)
			streak++
			s.rt.Backoff(ctx, streak)
			continue
		}
		streak = 0
		if state == WorkerQuarantined {
			// Benched: stop claiming, keep heartbeating so the registry
			// shows the drained worker instead of expiring it.
			sleep(ctx, s.rt.Poll)
			continue
		}
		for _, l := range leases {
			if s.addHeld(l) {
				pending <- l
			}
		}
	}
}

// evalOne evaluates one leased unit to a report echoing the lease's
// (job, key, epoch) idempotency token.
func (s *session) evalOne(ctx context.Context, l Lease) Report {
	s.evals.Add(1)
	v, err := s.c.Evaluate(ctx, l)
	s.evals.Add(-1)
	return Report{Job: l.Job, Key: l.Unit.Key, Epoch: l.Epoch, Verdict: v, Err: err}
}

// reportLoop batches verdicts back: it blocks for the first result,
// drains whatever else is ready (up to Batch), and ships them in one
// call. After a cancellation the remaining results — the Interrupted
// reports of a graceful drain — still ship, so the pool requeues the
// units now rather than waiting out the lease expiry.
func (s *session) reportLoop(ctx context.Context, results <-chan Report) {
	for {
		first, ok := <-results
		if !ok {
			return
		}
		batch := []Report{first}
	drain:
		for len(batch) < s.rt.Batch {
			select {
			case r, ok := <-results:
				if !ok {
					break drain // the next receive ends the loop
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.send(ctx, batch)
	}
}

// send delivers one batch, retrying until the pool answers — verdicts
// cost evaluations and must not be dropped on a transient outage. A
// retired identity ends the session; after cancellation a single
// attempt under a short grace context flushes the batch and gives up.
func (s *session) send(ctx context.Context, batch []Report) {
	for streak := 0; ; streak++ {
		rctx := ctx
		var cancel context.CancelFunc
		if ctx.Err() != nil {
			rctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		}
		accepted, err := s.c.Report(rctx, batch)
		if cancel != nil {
			cancel()
		}
		switch {
		case errors.Is(err, ErrUnknownWorker):
			s.markGone()
			s.dropHeld(batch)
			return
		case err == nil:
			for i, r := range batch {
				if i < len(accepted) && !accepted[i] {
					s.rt.Logf("report %s/%x: discarded (duplicate or lost lease)", r.Job, r.Key)
				}
			}
			s.dropHeld(batch)
			return
		}
		s.rt.Logf("report (%d units): %v", len(batch), err)
		if ctx.Err() != nil {
			// The grace attempt failed too; the pool will requeue the
			// units when their leases expire.
			s.dropHeld(batch)
			return
		}
		s.rt.Backoff(ctx, streak+1)
	}
}

// beat heartbeats at the runtime's interval, carrying the current
// in-flight evaluation count. A transient failure is ignored — the next
// tick retries, and claims/reports count as beats anyway — but a
// retired identity ends the session.
func (s *session) beat(ctx context.Context) {
	t := time.NewTicker(s.rt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.gone:
			return
		case <-t.C:
		}
		if err := s.c.Heartbeat(ctx, int(s.evals.Load())); errors.Is(err, ErrUnknownWorker) {
			s.markGone()
			return
		}
	}
}

// sleep waits d or until ctx ends, returning ctx's error if it did.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// local is an in-process worker's Conn: direct calls into the pool,
// evaluating on the job's registered evaluator.
type local struct {
	p  *Pool
	id string
}

func (c local) Claim(_ context.Context, wait time.Duration, max, held int) ([]Lease, WorkerState, error) {
	return c.p.Claim(c.id, wait, max, held)
}

func (c local) Heartbeat(_ context.Context, inflight int) error {
	_, err := c.p.HeartbeatLoad(c.id, inflight)
	return err
}

func (c local) Report(_ context.Context, reports []Report) ([]bool, error) {
	return c.p.ReportBatch(c.id, reports)
}

func (c local) Evaluate(_ context.Context, l Lease) (search.Verdict, error) {
	return l.ev.Evaluate(l.Unit)
}
