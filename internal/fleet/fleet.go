// Package fleet is the sharded-evaluation scheduler of the fpmixd
// service: a registry of workers and a piece-granular shard queue with
// lease/heartbeat semantics. The search coordinator stays in one
// process (internal/search keeps its deterministic queue trajectory)
// and routes every evaluation unit here through the search.UnitEvaluator
// seam; the pool leases each unit to a worker, requeues it when the
// worker dies — detected by a stopped heartbeat, or reported by Kill —
// and accepts a result only from the unit's current lease holder, so a
// late verdict from a dead worker can never race a reassigned one.
// Because unit verdicts are deterministic functions of their address
// sets, the composed final configuration is byte-identical to a serial
// run no matter how units are sharded, reassigned or replayed.
//
// Every worker runs the same Runtime — claim loop, Parallel evaluators,
// batching reporter, heartbeat — against the pool's Claim/ReportBatch/
// HeartbeatLoad through a Conn. In-process workers (Start/AddWorker)
// are goroutines whose Conn calls the pool directly and evaluates on
// the job's registered evaluator, one lease at a time. Remote workers
// (AddRemote; internal/remote and cmd/fpmixworker) run the runtime in
// their own address space behind the wire protocol — a crashed worker
// process can never take the pool down; its stopped heartbeat breaks
// its leases like a Kill. A worker holds at most the lease batch it
// declared at registration; every lease carries its own owner+epoch
// idempotency token, so batching changes how many units ride one call,
// never the failure semantics. The pool treats the two kinds alike
// except where a failure means something different: an in-process
// evaluation error or cancellation settles the unit (a remote one
// requeues it), DrainRemote stops only remote leases, and a retired
// in-process worker stays dead. All lease-expiry decisions use the
// pool's own clock only: worker timestamps never enter them, so
// arbitrarily skewed worker clocks cannot expire or extend a lease.
//
// Scheduling prefers fork affinity: units sharing a fork point (their
// first single site) resume from the same donor snapshot under
// fork-point evaluation, so the pool routes them to the worker that
// already holds that snapshot when one exists, falling back to strict
// FIFO whenever affinity would starve the queue head.
package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"fpmix/internal/search"
)

// Evaluator executes one evaluation unit to a verdict. The local
// implementation is *search.UnitRunner; tests substitute fakes.
type Evaluator interface {
	Evaluate(u search.EvalUnit) (search.Verdict, error)
}

// Options shape a pool's failure detection.
type Options struct {
	// Heartbeat is the interval at which live workers refresh their
	// lease (default 500ms); Expiry is the silence after which the
	// monitor declares a worker dead and reassigns its shard (default
	// 8×Heartbeat).
	Heartbeat time.Duration
	Expiry    time.Duration
	// MaxReassign bounds how many times one shard may be reassigned
	// before the pool gives up and fails it (default 3) — a shard that
	// kills every worker it touches must not take the fleet down with
	// it.
	MaxReassign int
	// QuarantineAfter is the number of consecutive worker-reported
	// evaluation failures after which a remote worker is quarantined:
	// it keeps heartbeating but is never assigned another shard until
	// an operator kills or restarts it (default 3). A successful report
	// resets the count.
	QuarantineAfter int
	// Fallback enables graceful degradation: when no assignable worker
	// remains (all dead or quarantined), units evaluate in-process on
	// the job's own registered evaluator instead of failing — jobs slow
	// down but never stall. Off by default so pure-fleet tests observe
	// the no-live-workers error paths.
	Fallback bool
	// ClaimPoll selects how remote claim long-polls discover new work.
	// Zero (the default) is event-driven: a blocked Claim wakes the
	// instant a unit is enqueued or a lease breaks. A positive value
	// restores the periodic re-check loop of the original protocol
	// (every enqueue is discovered up to ClaimPoll late) — kept so the
	// remote-throughput experiment can measure the old behavior as its
	// baseline.
	ClaimPoll time.Duration
	// Clock overrides the time source for heartbeat/lease bookkeeping
	// (tests drive expiry deterministically with a fake clock). Nil
	// means time.Now. Lease expiry compares only timestamps taken from
	// this clock — worker-side clocks are never consulted, so clock
	// skew between daemon and workers cannot break or extend a lease.
	Clock func() time.Time
}

// Affinity scheduling bounds. A worker looks at most affinityWindow
// deep into the queue for a unit whose fork site it owns, and the
// queue head can be bypassed by such picks at most starveSkips times
// before it must be taken regardless — affinity is a preference, never
// a starvation source.
const (
	affinityWindow = 16
	starveSkips    = 8
	// affinityGrace is how long a queued unit whose fork site belongs to
	// another worker is reserved for that owner. While the grace runs,
	// non-owners with nothing else to take decline instead of stealing —
	// the owner's parked claim collects the unit within microseconds, so
	// the donor snapshot amortizes instead of re-running on a stranger.
	// Once the grace expires (owner saturated, slow, or gone quiet) any
	// worker takes the unit: affinity is a preference, never a fence.
	affinityGrace = 50 * time.Millisecond
	// affinityCap bounds the site-ownership table; past it the table
	// resets (ownership is a routing hint — losing it costs at most one
	// redundant donor run per worker, never correctness).
	affinityCap = 8192
)

// WorkerState is a worker's position in its lifecycle.
type WorkerState string

const (
	WorkerIdle WorkerState = "idle"
	WorkerBusy WorkerState = "busy"
	WorkerDead WorkerState = "dead"
	// WorkerQuarantined: too many consecutive failures; the worker is
	// drained — it keeps heartbeating and stays visible in the
	// registry, but no shard is ever assigned to it again.
	WorkerQuarantined WorkerState = "quarantined"
)

// WorkerInfo is a registry snapshot of one worker.
type WorkerInfo struct {
	ID        string      `json:"id"`
	Name      string      `json:"name,omitempty"` // remote self-reported name
	Remote    bool        `json:"remote,omitempty"`
	State     WorkerState `json:"state"`
	Parallel  int         `json:"parallel,omitempty"` // declared concurrent evaluations
	Done      int         `json:"done"`               // units completed and accepted
	Discarded int         `json:"discarded"`          // results rejected (lease lost or duplicated)
	Fails     int         `json:"fails,omitempty"`    // consecutive reported failures
	// InFlight counts leases currently held (assigned, not yet
	// reported); Evaluating is the worker's own last-heartbeated count
	// of evaluations running right now.
	InFlight   int `json:"in_flight"`
	Evaluating int `json:"evaluating,omitempty"`
	// UnitsPerSec is accepted units over the span from the worker's
	// first lease to its latest delivery; MeanUnitMS is the mean
	// worker-measured evaluation wall per accepted unit.
	UnitsPerSec float64   `json:"units_per_sec,omitempty"`
	MeanUnitMS  float64   `json:"mean_unit_ms,omitempty"`
	Job         string    `json:"job,omitempty"`
	Unit        string    `json:"unit,omitempty"`
	LastBeat    time.Time `json:"last_beat"`
}

// Pool is the worker registry plus shard scheduler.
type Pool struct {
	opts Options

	ctx  context.Context // in-process workers' lifetime; cancelled by Close
	stop context.CancelFunc

	mu         sync.Mutex
	waitCh     chan struct{} // closed+replaced on every scheduling event
	workers    map[string]*worker
	queue      []*shard          // FIFO of unleased shards
	aff        map[string]string // fork-site key → owning worker ID
	wseq, rseq int
	// epochs numbers lease assignments pool-wide, so a unit key leased
	// again — reassigned, or enqueued again under the same key — always
	// carries an epoch above any a worker has already reported.
	epochs       int
	fallbacks    int
	draining     bool // no new remote leases (graceful shutdown)
	interrupting bool // every queued or future unit settles interrupted
	closed       bool
}

type worker struct {
	id       string
	name     string
	remote   bool
	state    WorkerState
	dead     bool
	parallel int // declared concurrent evaluations (1 for in-process)
	batch    int // declared lease capacity (1 for in-process)

	done       int
	discarded  int
	fails      int
	evaluating int // last heartbeat-reported in-flight evaluations

	leases map[string]*shard // leaseKey → shard currently held

	firstLease time.Time
	lastDone   time.Time
	wallSum    time.Duration

	lastBeat time.Time
}

// shard is one leased evaluation unit.
type shard struct {
	job  *JobHandle
	unit search.EvalUnit
	site string // fork-affinity key (job + fork site)

	owner     string // worker holding the lease ("" = queued)
	epoch     int    // pool-wide sequence number of the latest assignment
	reassigns int
	skips     int       // times bypassed at the queue head by affinity picks
	queued    time.Time // last (re-)enqueue, bounds the affinity-decline grace
	delivered bool
	done      chan shardResult // buffered 1
}

type shardResult struct {
	v   search.Verdict
	err error
}

// settle delivers the shard's outcome to its waiting EvaluateUnit;
// callers hold p.mu and have checked it is not yet delivered.
func (sh *shard) settle(v search.Verdict, err error) {
	sh.delivered = true
	sh.done <- shardResult{v: v, err: err}
}

// New builds an empty pool; add workers with Start or AddWorker.
func New(opts Options) *Pool {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.Expiry <= 0 {
		// Generous by design: beat goroutines share the scheduler with
		// CPU-saturating evaluation runs, so a tight expiry would declare
		// healthy-but-starved workers dead under full load.
		opts.Expiry = 8 * opts.Heartbeat
	}
	if opts.MaxReassign <= 0 {
		opts.MaxReassign = 3
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 3
	}
	p := &Pool{
		opts:    opts,
		workers: make(map[string]*worker),
		waitCh:  make(chan struct{}),
		aff:     make(map[string]string),
	}
	p.ctx, p.stop = context.WithCancel(context.Background())
	go p.monitor()
	return p
}

// now is the pool's only time source for heartbeat/lease bookkeeping.
func (p *Pool) now() time.Time {
	if p.opts.Clock != nil {
		return p.opts.Clock()
	}
	return time.Now()
}

// wakeLocked wakes every parked claim; callers hold p.mu.
func (p *Pool) wakeLocked() {
	close(p.waitCh)
	p.waitCh = make(chan struct{})
}

// leaseKey identifies one held lease within a worker.
func leaseKey(jobID, unitKey string) string {
	return jobID + "\x00" + unitKey
}

// siteKey derives a shard's fork-affinity key: the job plus the unit's
// first single site. Units created by the search carry the site as a
// hint; for any that don't, it is re-derived from the unit key, whose
// byte image is the little-endian form of the sorted address set.
func siteKey(jobID string, u search.EvalUnit) string {
	site := u.ForkSite
	if site == 0 && len(u.Key) >= 8 && !u.Final {
		site = binary.LittleEndian.Uint64([]byte(u.Key[:8]))
	}
	return jobID + "\x00" + strconv.FormatUint(site, 16)
}

// Start adds n in-process workers.
func (p *Pool) Start(n int) {
	for i := 0; i < n; i++ {
		p.AddWorker()
	}
}

// AddWorker registers one in-process worker and returns its ID.
func (p *Pool) AddWorker() string {
	id := p.register("", false, 1, 1)
	go p.serveLocal(local{p: p, id: id})
	return id
}

// serveLocal runs an in-process worker until the pool closes or
// retires it: one lease at a time, so the job's shared evaluator sees
// the same load it did before sharding. A retired in-process worker
// stays dead — only remote workers re-register.
func (p *Pool) serveLocal(c Conn) {
	Runtime{Parallel: 1, Batch: 1, Heartbeat: p.opts.Heartbeat}.Serve(p.ctx, c)
}

// Kill reports a worker dead: its leases are broken and the shards
// requeued for other workers, and any verdict the doomed evaluations
// still produce is discarded on delivery.
func (p *Pool) Kill(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("fleet: no worker %s", id)
	}
	p.markDeadLocked(w)
	return nil
}

// Workers snapshots the registry; order is not guaranteed — callers
// sort.
func (p *Pool) Workers() []WorkerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, w := range p.workers {
		wi := WorkerInfo{
			ID: w.id, Name: w.name, Remote: w.remote, State: w.state,
			Parallel: w.parallel, Done: w.done, Discarded: w.discarded,
			Fails: w.fails, InFlight: len(w.leases), Evaluating: w.evaluating,
			LastBeat: w.lastBeat,
		}
		if w.done > 0 {
			wi.MeanUnitMS = float64(w.wallSum) / float64(w.done) / float64(time.Millisecond)
			if span := w.lastDone.Sub(w.firstLease); span > 0 {
				wi.UnitsPerSec = float64(w.done) / span.Seconds()
			}
		}
		// With several leases held, show the lexicographically first so
		// the snapshot is stable between calls.
		min := ""
		for k, sh := range w.leases {
			if min == "" || k < min {
				min = k
				wi.Job = sh.job.id
				wi.Unit = sh.unit.Label
			}
		}
		out = append(out, wi)
	}
	return out
}

// Alive counts workers that can still take shards (not dead, not
// quarantined).
func (p *Pool) Alive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assignableCountLocked()
}

// Fallbacks counts units that degraded to in-process evaluation
// because no assignable worker remained.
func (p *Pool) Fallbacks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fallbacks
}

// QueueLen is the number of shards awaiting a lease.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close shuts the pool: queued shards fail, workers exit after their
// current evaluation.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.stop() // before closed: an in-process claim seeing closed finds its context done
	p.closed = true
	for _, sh := range p.queue {
		sh.settle(search.Verdict{}, fmt.Errorf("fleet: pool closed"))
	}
	p.queue = nil
	p.wakeLocked()
}

// DrainRemote stops granting new leases to remote workers (graceful
// shutdown: in-flight remote units finish and deliver; nothing new
// ships over the wire). In-process workers keep claiming.
func (p *Pool) DrainRemote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draining = true
}

// AwaitRemoteIdle blocks until no shard is leased to a remote worker,
// or the timeout passes; it returns how many remote leases remain.
func (p *Pool) AwaitRemoteIdle(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := 0
		p.mu.Lock()
		for _, w := range p.workers {
			if w.remote {
				n += len(w.leases)
			}
		}
		p.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ReleaseRemoteLeases settles every shard still leased to a remote
// worker as interrupted (the piece stays unsettled and is never
// journaled; the requeued job re-evaluates it). Only safe once the
// owning searches are cancelled — an interrupted verdict delivered to
// a live search would silently drop the piece. The abandoned worker's
// eventual report no longer matches any held lease and is discarded.
func (p *Pool) ReleaseRemoteLeases() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if !w.remote || len(w.leases) == 0 {
			continue
		}
		for k, sh := range w.leases {
			delete(w.leases, k)
			if sh.delivered {
				continue
			}
			sh.owner = ""
			sh.settle(search.Verdict{Interrupted: true}, nil)
		}
		if w.state == WorkerBusy {
			w.state = WorkerIdle
		}
	}
	p.wakeLocked()
}

// InterruptQueued settles every queued shard — and every unit enqueued
// from now on — as interrupted. Same safety contract as
// ReleaseRemoteLeases: call only after cancelling the owning searches.
func (p *Pool) InterruptQueued() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.interrupting = true
	for _, sh := range p.queue {
		if !sh.delivered {
			sh.settle(search.Verdict{Interrupted: true}, nil)
		}
	}
	p.queue = nil
	p.wakeLocked()
}

// JobHandle is a registered job's face to the pool: it implements
// search.UnitEvaluator, so a search hands units straight to the fleet
// via Options.Units.
type JobHandle struct {
	pool *Pool
	id   string
	ev   Evaluator
}

// Register binds a job ID to the evaluator its units run on (one
// shared UnitRunner per job — engines are concurrency-safe). The
// evaluator doubles as the in-process fallback when Options.Fallback
// is set and no assignable worker remains.
func (p *Pool) Register(jobID string, ev Evaluator) *JobHandle {
	return &JobHandle{pool: p, id: jobID, ev: ev}
}

// EvaluateUnit enqueues the unit as a shard and blocks until a worker
// delivers its verdict (or the pool exhausts the reassignment budget).
// With Options.Fallback, a unit that finds no assignable worker runs
// in-process instead of erroring.
func (j *JobHandle) EvaluateUnit(u search.EvalUnit) (search.Verdict, error) {
	sh := &shard{job: j, unit: u, site: siteKey(j.id, u), done: make(chan shardResult, 1)}
	p := j.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return search.Verdict{}, fmt.Errorf("fleet: pool closed")
	}
	if p.interrupting {
		p.mu.Unlock()
		return search.Verdict{Interrupted: true}, nil
	}
	if p.assignableCountLocked() == 0 {
		p.orphanLocked(sh)
	} else {
		sh.queued = p.now()
		p.queue = append(p.queue, sh)
		p.wakeLocked()
	}
	p.mu.Unlock()
	r := <-sh.done
	return r.v, r.err
}

// takeLocked removes and returns the next shard for w, preferring fork
// affinity inside a bounded window: first a shard whose site w already
// owns, then a shard whose site has no live owner (w becomes its
// owner), and otherwise the queue head — which can be bypassed at most
// starveSkips times before it is taken unconditionally. Returns nil
// when the queue is empty. Callers hold p.mu.
func (p *Pool) takeLocked(w *worker) *shard {
	if len(p.queue) == 0 {
		return nil
	}
	head := p.queue[0]
	pick := 0
	if head.skips < starveSkips {
		limit := len(p.queue)
		if limit > affinityWindow {
			limit = affinityWindow
		}
		fresh := -1
		mine := -1
		for i := 0; i < limit; i++ {
			owner, owned := p.aff[p.queue[i].site]
			if owned && owner == w.id {
				mine = i
				break
			}
			if fresh < 0 && (!owned || !p.ownerAssignableLocked(owner)) {
				fresh = i
			}
		}
		switch {
		case mine >= 0:
			pick = mine
		case fresh > 0:
			// Bypass the head for a fresh site only when the head belongs
			// to another live worker that will come back for it; an
			// unowned head is taken directly (fresh == 0 lands here too).
			if owner, owned := p.aff[head.site]; owned && owner != w.id && p.ownerAssignableLocked(owner) {
				pick = fresh
			}
		case fresh < 0:
			// Everything in the window belongs to other workers. Taking
			// the head now would strand its donor snapshot — the thief
			// re-runs the donor the owner already paid for — so while the
			// unit is inside its grace and the owner is positioned to
			// collect it (its claim is parked or about to be), decline
			// and let the owner have it. The grace is a hard bound: past
			// it the unit goes to whoever asks, because a stalled owner
			// must never stall the queue.
			if owner, owned := p.aff[head.site]; owned && owner != w.id &&
				p.ownerWillClaimLocked(owner) && p.now().Sub(head.queued) < affinityGrace {
				return nil
			}
		}
	}
	sh := p.queue[pick]
	if pick > 0 {
		head.skips++
	}
	// Delete, not a reslice: it zeroes the vacated slot, so the backing
	// array does not keep a settled shard — and through its job handle
	// the job's runner and engines — reachable after the job ends.
	p.queue = slices.Delete(p.queue, pick, pick+1)
	return sh
}

// ownerWillClaimLocked reports whether the affinity owner is in a
// position to collect more queued work promptly: a worker holding less
// than its declared batch keeps a claim parked at the pool (its runtime
// claims exactly that difference). A saturated owner cannot — waiting
// on it would idle the queue, so a decline is only worth it when this
// returns true. Callers hold p.mu.
func (p *Pool) ownerWillClaimLocked(id string) bool {
	w, ok := p.workers[id]
	return ok && p.assignableLocked(w) && len(w.leases) < w.batch
}

// ownerAssignableLocked reports whether the worker behind an affinity
// entry can still be assigned shards; callers hold p.mu.
func (p *Pool) ownerAssignableLocked(id string) bool {
	w, ok := p.workers[id]
	return ok && p.assignableLocked(w)
}

// assignableLocked reports whether w can be leased shards: alive, not
// quarantined, and not a remote worker during a drain. Callers hold
// p.mu.
func (p *Pool) assignableLocked(w *worker) bool {
	return !w.dead && w.state != WorkerQuarantined && !(w.remote && p.draining)
}

// assignLocked leases a shard (already removed from the queue) to w
// and records fork-site ownership; callers hold p.mu.
func (p *Pool) assignLocked(w *worker, sh *shard) {
	sh.owner = w.id
	p.epochs++
	sh.epoch = p.epochs
	sh.skips = 0
	w.leases[leaseKey(sh.job.id, sh.unit.Key)] = sh
	w.state = WorkerBusy
	if w.firstLease.IsZero() {
		w.firstLease = p.now()
	}
	if len(p.aff) >= affinityCap {
		p.aff = make(map[string]string)
	}
	if cur, ok := p.aff[sh.site]; !ok || !p.ownerAssignableLocked(cur) {
		p.aff[sh.site] = w.id
	}
}

// deliverLocked completes an accepted delivery; callers hold p.mu and
// have verified the lease.
func (p *Pool) deliverLocked(w *worker, sh *shard, v search.Verdict, err error) {
	sh.owner = ""
	p.breakLeaseLocked(w, sh)
	w.done++
	w.fails = 0
	w.wallSum += v.Wall
	w.lastDone = p.now()
	sh.settle(v, err)
	p.wakeLocked()
}

// breakLeaseLocked detaches a shard from its holder without settling
// it; callers hold p.mu and requeue or fail the shard themselves.
func (p *Pool) breakLeaseLocked(w *worker, sh *shard) {
	delete(w.leases, leaseKey(sh.job.id, sh.unit.Key))
	if w.state == WorkerBusy && len(w.leases) == 0 {
		w.state = WorkerIdle
	}
}

// monitor scans for workers whose heartbeat went silent (a remote
// worker crashed or partitioned, an in-process one wedged) and
// reassigns their shards.
func (p *Pool) monitor() {
	t := time.NewTicker(p.opts.Heartbeat)
	defer t.Stop()
	for range t.C {
		if !p.sweep() {
			return
		}
	}
}

// sweep runs one monitor pass: every worker silent past Expiry on the
// pool's clock is declared dead. Returns false once the pool is
// closed. Exposed to in-package tests so a fake clock can drive expiry
// deterministically.
func (p *Pool) sweep() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	now := p.now()
	for _, w := range p.workers {
		if !w.dead && now.Sub(w.lastBeat) > p.opts.Expiry {
			p.markDeadLocked(w)
		}
	}
	return true
}

// markDeadLocked retires a worker, breaks all its leases and clears
// its fork-site ownerships; callers hold p.mu.
func (p *Pool) markDeadLocked(w *worker) {
	if w.dead {
		return
	}
	w.dead = true
	w.state = WorkerDead
	p.disownSitesLocked(w)
	for k, sh := range w.leases {
		delete(w.leases, k)
		if sh.owner == w.id {
			p.requeueLocked(sh)
		}
	}
	p.sweepUnassignableLocked()
	p.wakeLocked()
}

// disownSitesLocked removes every fork-site ownership held by w, so
// its sites route fresh; callers hold p.mu.
func (p *Pool) disownSitesLocked(w *worker) {
	for site, owner := range p.aff {
		if owner == w.id {
			delete(p.aff, site)
		}
	}
}

// sweepUnassignableLocked fails (or falls back) every queued shard once
// no worker can take a lease — they would otherwise wait forever.
// Callers hold p.mu.
func (p *Pool) sweepUnassignableLocked() {
	if p.assignableCountLocked() > 0 || len(p.queue) == 0 {
		return
	}
	queue := p.queue
	p.queue = nil
	for _, sh := range queue {
		if !sh.delivered {
			p.orphanLocked(sh)
		}
	}
}

// orphanLocked settles a shard no worker can take: with
// Options.Fallback it evaluates in-process on the job's own evaluator
// (outside p.mu), otherwise it fails. Callers hold p.mu.
func (p *Pool) orphanLocked(sh *shard) {
	if !p.opts.Fallback {
		sh.settle(search.Verdict{}, fmt.Errorf("fleet: no live workers left for unit %q", sh.unit.Label))
		return
	}
	p.fallbacks++
	go func() {
		v, err := sh.job.ev.Evaluate(sh.unit)
		p.mu.Lock()
		defer p.mu.Unlock()
		if !sh.delivered {
			sh.settle(v, err)
		}
	}()
}

// requeueLocked puts a broken-lease shard back at the head of the
// queue, or fails it when its reassignment budget is spent or no worker
// is left to take it (falling back in-process when enabled).
func (p *Pool) requeueLocked(sh *shard) {
	sh.owner = ""
	sh.reassigns++
	if sh.delivered {
		return
	}
	if sh.reassigns > p.opts.MaxReassign {
		sh.settle(search.Verdict{}, fmt.Errorf("fleet: unit %q reassigned %d times, giving up", sh.unit.Label, sh.reassigns))
		return
	}
	if p.assignableCountLocked() == 0 {
		p.orphanLocked(sh)
		return
	}
	sh.queued = p.now()
	p.queue = append([]*shard{sh}, p.queue...)
	p.wakeLocked()
}

// assignableCountLocked counts workers a shard could be leased to;
// callers hold p.mu.
func (p *Pool) assignableCountLocked() int {
	n := 0
	for _, w := range p.workers {
		if p.assignableLocked(w) {
			n++
		}
	}
	return n
}
