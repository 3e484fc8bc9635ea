package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrUnknownWorker reports a worker ID the registry does not know or
// has already retired — the wire maps it to 410 Gone, and a remote
// worker receiving it re-registers under a fresh identity (the standard
// recovery after a daemon restart or an operator kill).
var ErrUnknownWorker = errors.New("fleet: unknown or retired worker")

// AddRemote registers an out-of-process worker under the given
// self-reported name, declared evaluation parallelism and lease batch,
// returning its assigned ID plus the heartbeat interval and expiry the
// worker must respect. The batch is the worker's lease capacity — how
// many units Claim may leave in its hands at once (DefaultBatch when
// not declared). The worker drives itself through Claim/Report and
// keeps its registration alive through HeartbeatLoad; silence past
// Expiry on the pool's clock retires it.
func (p *Pool) AddRemote(name string, parallel, batch int) (id string, heartbeat, expiry time.Duration) {
	if parallel <= 0 {
		parallel = 1
	}
	if batch <= 0 {
		batch = DefaultBatch(parallel)
	}
	return p.register(name, true, parallel, batch), p.opts.Heartbeat, p.opts.Expiry
}

// register adds a worker to the registry and returns its ID: wN for
// in-process workers, rN for remote ones.
func (p *Pool) register(name string, remote bool, parallel, batch int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &worker{
		name:     name,
		remote:   remote,
		state:    WorkerIdle,
		parallel: parallel,
		batch:    batch,
		leases:   make(map[string]*shard),
		lastBeat: p.now(),
	}
	if remote {
		p.rseq++
		w.id = fmt.Sprintf("r%d", p.rseq)
	} else {
		p.wseq++
		w.id = fmt.Sprintf("w%d", p.wseq)
	}
	p.workers[w.id] = w
	return w.id
}

// HeartbeatLoad refreshes a worker's lease clock (stamped with the
// pool's own clock — the worker's clock never enters expiry decisions)
// and returns its current state, so a quarantined worker learns to stop
// claiming. inflight is the worker's self-reported count of evaluations
// running right now (negative leaves the last report unchanged); the
// registry surfaces it so fleet saturation is observable without
// profiling.
func (p *Pool) HeartbeatLoad(id string, inflight int) (WorkerState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok || w.dead {
		return WorkerDead, ErrUnknownWorker
	}
	w.lastBeat = p.now()
	if inflight >= 0 {
		w.evaluating = inflight
	}
	return w.state, nil
}

// Claim leases up to max new units to the worker, long-polling up to
// wait, within the worker's declared batch; held is how many leases
// the worker knows it holds. It answers as soon as it grants a lease,
// and at once when the pool holds more leases for the worker than held
// (a claim response was lost). Either answer lists every lease the
// worker holds, held ones first at their unchanged epochs — whichever
// delivery the worker acts on, only one report per unit is accepted.
// Otherwise the claim parks until work arrives or the wait ends, so a
// worker topping up its batch never spins on re-deliveries. An empty
// slice with state WorkerIdle means no new work was available; state
// WorkerQuarantined tells the worker to drain.
func (p *Pool) Claim(id string, wait time.Duration, max, held int) ([]Lease, WorkerState, error) {
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(wait)
	for {
		p.mu.Lock()
		w, ok := p.workers[id]
		if !ok || w.dead {
			p.mu.Unlock()
			return nil, WorkerDead, ErrUnknownWorker
		}
		if p.closed {
			p.mu.Unlock()
			return nil, WorkerDead, fmt.Errorf("fleet: pool closed")
		}
		w.lastBeat = p.now() // a claim is as good as a heartbeat
		if w.state == WorkerQuarantined {
			p.mu.Unlock()
			return nil, WorkerQuarantined, nil
		}
		leases := p.heldLeasesLocked(w)
		known := len(leases)
		lost := known > held
		if !p.interrupting && p.assignableLocked(w) {
			for len(leases)-known < max && len(w.leases) < w.batch {
				sh := p.takeLocked(w)
				if sh == nil {
					break
				}
				p.assignLocked(w, sh)
				leases = append(leases, Lease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch, ev: sh.job.ev})
				if sh.unit.Final {
					// The final union lowers every surviving single at once —
					// by far the heaviest unit of its search. Close the batch
					// behind it so lighter units stay available to the rest of
					// the fleet.
					break
				}
			}
		}
		if lost || len(leases) > known {
			state := w.state
			p.mu.Unlock()
			return leases, state, nil
		}
		waitCh := p.waitCh
		p.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, WorkerIdle, nil
		}
		if poll := p.opts.ClaimPoll; poll > 0 {
			// Legacy periodic re-check (the original protocol's behavior,
			// kept for the remote-throughput baseline): new work is
			// discovered up to one poll interval late.
			if remain < poll {
				poll = remain
			}
			time.Sleep(poll)
			continue
		}
		t := time.NewTimer(remain)
		select {
		case <-waitCh:
		case <-t.C:
		}
		t.Stop()
	}
}

// heldLeasesLocked snapshots a worker's held leases in stable (job,
// key) order; callers hold p.mu.
func (p *Pool) heldLeasesLocked(w *worker) []Lease {
	if len(w.leases) == 0 {
		return nil
	}
	keys := make([]string, 0, len(w.leases))
	for k := range w.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	leases := make([]Lease, 0, len(keys))
	for _, k := range keys {
		sh := w.leases[k]
		leases = append(leases, Lease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch, ev: sh.job.ev})
	}
	return leases
}

// ReportBatch delivers a batch of outcomes. Each entry is judged
// independently against the full idempotency token — the worker holds
// the unit's lease, same job, same unit key, same epoch, not yet
// delivered; anything else (a duplicated report RPC, a late report
// after the lease broke and the shard was reassigned) answers
// accepted=false for that entry alone and is counted as discarded, so
// re-delivered units never double-count and a duplicate in one slot
// cannot poison its batchmates.
//
// An in-process worker's outcome is delivered as it is: an evaluation
// error fails the unit's search, and an Interrupted verdict (the job
// was cancelled) reaches the cancelled search. A remote worker's
// evaluation error does not fail the job: the shard requeues for
// another worker (bounded by MaxReassign) and the failure counts toward
// the worker's quarantine threshold; QuarantineAfter consecutive
// failures drain the worker — which also breaks its remaining leases,
// so later entries of the same batch settle as discarded duplicates and
// their units re-evaluate elsewhere.
func (p *Pool) ReportBatch(id string, reports []Report) ([]bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	if w.dead {
		w.discarded += len(reports)
		return nil, ErrUnknownWorker
	}
	w.lastBeat = p.now()
	accepted := make([]bool, len(reports))
	for i, r := range reports {
		sh := w.leases[leaseKey(r.Job, r.Key)]
		if sh == nil || sh.delivered || sh.owner != w.id || sh.epoch != r.Epoch {
			w.discarded++
			continue
		}
		if w.remote && (r.Err != nil || r.Verdict.Interrupted) {
			// The worker could not produce a verdict: its environment broke
			// (Err — counts toward quarantine) or it is shutting down
			// gracefully and its local context interrupted the run (no
			// strike — a drain is not a fault). Either way the verdict must
			// not reach the search: an Interrupted verdict delivered to a
			// live coordinator would silently drop the piece from the final.
			// Break the lease and requeue the shard for someone else.
			p.breakLeaseLocked(w, sh)
			if r.Err != nil {
				w.fails++
				if w.fails >= p.opts.QuarantineAfter {
					p.quarantineLocked(w)
				}
			}
			p.requeueLocked(sh)
			accepted[i] = true
			continue
		}
		p.deliverLocked(w, sh, r.Verdict, r.Err)
		accepted[i] = true
	}
	return accepted, nil
}

// quarantineLocked drains a worker: no further shard is ever assigned
// to it, its remaining leases break and requeue, and its fork-site
// ownerships clear so siblings route to live workers. It stays
// registered (and heartbeating) so the registry shows why it was
// benched. Callers hold p.mu.
func (p *Pool) quarantineLocked(w *worker) {
	if w.dead || w.state == WorkerQuarantined {
		return
	}
	w.state = WorkerQuarantined
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
