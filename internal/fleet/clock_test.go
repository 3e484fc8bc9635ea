package fleet

import (
	"sync"
	"testing"
	"time"

	"fpmix/internal/search"
)

// fakeClock is a manually advanced time source for deterministic
// lease-expiry tests: the pool's Options.Clock reads it, and tests
// drive the monitor's sweep directly instead of waiting on tickers.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// quietOpts keeps the real-time monitor ticker effectively off so the
// fake clock alone decides expiry (sweep is called explicitly).
func quietOpts(fc *fakeClock) Options {
	return Options{Heartbeat: time.Hour, Expiry: time.Minute, Clock: fc.Now}
}

// TestClockLeaseExpiry: a remote worker that stops heartbeating is
// declared dead exactly when the pool's clock passes Expiry — not
// before — and its lease requeues.
func TestClockLeaseExpiry(t *testing.T) {
	fc := newFakeClock()
	p := New(quietOpts(fc))
	defer p.Close()
	id, _, _ := p.AddRemote("silent", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	claimSoon(t, p, id)

	// Just inside the expiry budget: still alive.
	fc.Advance(59 * time.Second)
	p.sweep()
	if p.Alive() != 1 {
		t.Fatal("worker expired before the budget was spent")
	}
	// A second worker joins, then the first's budget runs out: only the
	// silent one dies, and its shard requeues to the survivor.
	surv, _, _ := p.AddRemote("survivor", 1, 0)
	fc.Advance(2 * time.Second)
	p.sweep()
	if p.Alive() != 1 {
		t.Fatalf("Alive() = %d after expiry, want the survivor only", p.Alive())
	}
	if _, err := p.HeartbeatLoad(id, -1); err != ErrUnknownWorker {
		t.Fatalf("expired worker heartbeat err=%v, want ErrUnknownWorker", err)
	}
	lease := claimSoon(t, p, surv)
	if lease.Unit.Key != "k1" {
		t.Fatalf("requeued unit %q, want k1", lease.Unit.Key)
	}
	report(p, surv, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, "")
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}

// TestClockSkewTolerance: lease liveness depends only on when beats
// ARRIVE on the daemon's clock. A worker whose own clock is wildly
// skewed (it cannot even report a timestamp over this protocol — by
// design) stays alive as long as its beats keep landing, and a worker
// whose beats stop is retired no matter what its clock claimed.
func TestClockSkewTolerance(t *testing.T) {
	fc := newFakeClock()
	p := New(quietOpts(fc))
	defer p.Close()
	id, _, _ := p.AddRemote("skewed", 1, 0)
	// Beats arrive every 45s (daemon clock) — inside the 60s budget —
	// for a long stretch: the worker must survive every sweep.
	for i := 0; i < 10; i++ {
		fc.Advance(45 * time.Second)
		p.sweep()
		if _, err := p.HeartbeatLoad(id, -1); err != nil {
			t.Fatalf("beat %d rejected: %v", i, err)
		}
	}
	if p.Alive() != 1 {
		t.Fatal("regularly beating worker was retired")
	}
	// Silence: one full budget later it is gone.
	fc.Advance(61 * time.Second)
	p.sweep()
	if p.Alive() != 0 {
		t.Fatal("silent worker survived the expiry budget")
	}
	if _, err := p.HeartbeatLoad(id, -1); err != ErrUnknownWorker {
		t.Fatalf("beat after retirement: err=%v, want ErrUnknownWorker", err)
	}
}

// TestClockHeartbeatVsReassignRace hammers Heartbeat, Claim, Report
// and sweep concurrently while the clock jumps around the expiry
// boundary — run under -race, this pins the locking of the remote
// registry paths. Every unit must settle exactly once regardless of
// how beats and expiry sweeps interleave.
func TestClockHeartbeatVsReassignRace(t *testing.T) {
	fc := newFakeClock()
	opts := quietOpts(fc)
	// Fallback keeps units settling even in windows where every racer
	// identity has been expired away — the point is the interleaving,
	// not starvation.
	opts.Fallback = true
	p := New(opts)
	defer p.Close()
	p.AddRemote("anchor", 1, 0) // assignable at enqueue time so units queue
	j := p.Register("j0001", &fakeEval{})

	const units = 40
	results := make([]chan shardResult, units)
	for i := 0; i < units; i++ {
		results[i] = evalAsync(j, "unit"+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churning workers: claim, sometimes beat, report; re-register when
	// expired away.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id, _, _ := p.AddRemote("racer", 2, 0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				leases, _, err := p.Claim(id, 5*time.Millisecond, 2, 0)
				if err != nil {
					id, _, _ = p.AddRemote("racer", 2, 0) // expired: fresh identity
					continue
				}
				if i%3 == 0 {
					p.HeartbeatLoad(id, -1)
				}
				for _, lease := range leases {
					report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, "")
				}
			}
		}(g)
	}
	// The clock lurches across the expiry boundary while sweeps run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fc.Advance(40 * time.Second)
			p.sweep()
			time.Sleep(time.Millisecond)
		}
	}()

	// Every unit settles exactly once (requeues bounded by MaxReassign
	// could fail a unit; with instant reports that is vanishingly rare,
	// but accept either outcome — the invariant is one settle, no hang).
	deadline := time.After(30 * time.Second)
	for i, res := range results {
		select {
		case <-res:
		case <-deadline:
			t.Fatalf("unit %d never settled", i)
		}
	}
	close(stop)
	wg.Wait()
}
