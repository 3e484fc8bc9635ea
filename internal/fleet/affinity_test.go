package fleet

import (
	"fmt"
	"testing"
	"time"

	"fpmix/internal/search"
)

// evalSiteAsync enqueues a unit carrying an explicit fork-site hint and
// returns its result channel.
func evalSiteAsync(j *JobHandle, key string, site uint64) chan shardResult {
	out := make(chan shardResult, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: key, Label: key, ForkSite: site})
		out <- shardResult{v: v, err: err}
	}()
	return out
}

// waitQueue blocks until at least n shards are queued.
func waitQueue(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueLen() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d shards", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAffinityRoutesSiblings: units sharing a fork site route to the
// worker that owns the site's donor snapshot — a second worker claiming
// concurrently bypasses the owned queue head for a fresh site, and the
// owner picks up its sibling even from behind the head.
func TestAffinityRoutesSiblings(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	a, _, _ := p.AddRemote("a", 1, 0)
	b, _, _ := p.AddRemote("b", 1, 0)
	j := p.Register("j0001", &fakeEval{})

	// a evaluates the first site-1 unit and becomes site 1's owner.
	r1 := evalSiteAsync(j, "s1a", 1)
	la := claimSoon(t, p, a)
	if la.Unit.Key != "s1a" {
		t.Fatalf("a claimed %q, want s1a", la.Unit.Key)
	}
	if acc, err := report(p, a, la.Job, la.Unit.Key, la.Epoch, search.Verdict{Pass: true}, ""); err != nil || !acc {
		t.Fatalf("report: accepted=%v err=%v", acc, err)
	}
	if r := <-r1; r.err != nil {
		t.Fatal(r.err)
	}

	// Head: a sibling of a's site; behind it: a unit of a fresh site.
	r2 := evalSiteAsync(j, "s1b", 1)
	waitQueue(t, p, 1)
	r3 := evalSiteAsync(j, "s2a", 2)
	waitQueue(t, p, 2)

	// b must not take a's sibling off the head — it routes to the fresh
	// site and becomes its owner.
	lb := claimSoon(t, p, b)
	if lb.Unit.Key != "s2a" {
		t.Fatalf("b claimed %q, want the fresh-site unit s2a", lb.Unit.Key)
	}
	// a reaches past the (bypassed) head position for its own site.
	la2 := claimSoon(t, p, a)
	if la2.Unit.Key != "s1b" {
		t.Fatalf("a claimed %q, want its sibling s1b", la2.Unit.Key)
	}
	report(p, a, la2.Job, la2.Unit.Key, la2.Epoch, search.Verdict{Pass: true}, "")
	report(p, b, lb.Job, lb.Unit.Key, lb.Epoch, search.Verdict{Pass: true}, "")
	if r := <-r2; r.err != nil {
		t.Fatal(r.err)
	}
	if r := <-r3; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestAffinityStarvationFallback: the queue head can be bypassed by
// affinity picks at most starveSkips times; after that the next claim
// takes it unconditionally, even though its site belongs to another
// live worker.
func TestAffinityStarvationFallback(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	a, _, _ := p.AddRemote("a", 1, 0)
	b, _, _ := p.AddRemote("b", 1, 0)
	j := p.Register("j0001", &fakeEval{})

	// a owns site 1.
	r0 := evalSiteAsync(j, "seed", 1)
	la := claimSoon(t, p, a)
	report(p, a, la.Job, la.Unit.Key, la.Epoch, search.Verdict{Pass: true}, "")
	if r := <-r0; r.err != nil {
		t.Fatal(r.err)
	}

	// Head: another site-1 unit (a never claims again). Behind it:
	// starveSkips+1 units of distinct fresh sites tempting b away.
	var results []chan shardResult
	results = append(results, evalSiteAsync(j, "head", 1))
	waitQueue(t, p, 1)
	for i := 0; i < starveSkips+1; i++ {
		results = append(results, evalSiteAsync(j, fmt.Sprintf("fresh%d", i), uint64(i+2)))
		waitQueue(t, p, i+2)
	}

	// b's first starveSkips claims bypass the owned head for fresh
	// sites; the claim after that must take the head regardless.
	for i := 0; i < starveSkips; i++ {
		lb := claimSoon(t, p, b)
		if lb.Unit.Key == "head" {
			t.Fatalf("head taken after only %d bypasses, want %d", i, starveSkips)
		}
		report(p, b, lb.Job, lb.Unit.Key, lb.Epoch, search.Verdict{Pass: true}, "")
	}
	lb := claimSoon(t, p, b)
	if lb.Unit.Key != "head" {
		t.Fatalf("claim after %d bypasses got %q, want the starving head", starveSkips, lb.Unit.Key)
	}
	report(p, b, lb.Job, lb.Unit.Key, lb.Epoch, search.Verdict{Pass: true}, "")
	// Settle the remaining fresh unit and drain every channel.
	last := claimSoon(t, p, b)
	report(p, b, last.Job, last.Unit.Key, last.Epoch, search.Verdict{Pass: true}, "")
	for _, res := range results {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestAffinityGraceDecline: when every unit in the window belongs to
// another live worker positioned to collect it, a claim declines the
// head for the length of the affinity grace — the owner takes its
// sibling without anyone re-running the donor snapshot it already paid
// for — but only for the grace: once the pool clock passes it, the
// unit goes to whoever asks.
func TestAffinityGraceDecline(t *testing.T) {
	fc := newFakeClock()
	p := New(quietOpts(fc))
	defer p.Close()
	a, _, _ := p.AddRemote("a", 1, 0)
	b, _, _ := p.AddRemote("b", 1, 0)
	j := p.Register("j0001", &fakeEval{})

	// a owns site 1.
	r0 := evalSiteAsync(j, "seed", 1)
	la := claimSoon(t, p, a)
	report(p, a, la.Job, la.Unit.Key, la.Epoch, search.Verdict{Pass: true}, "")
	if r := <-r0; r.err != nil {
		t.Fatal(r.err)
	}

	// The only queued unit is a's sibling, inside its grace; a holds no
	// leases, so it is positioned to collect it — b comes away empty.
	r1 := evalSiteAsync(j, "sib", 1)
	waitQueue(t, p, 1)
	if leases, _, err := p.Claim(b, 0, 1, 0); err != nil || len(leases) != 0 {
		t.Fatalf("claim inside the grace: leases=%v err=%v, want none", leases, err)
	}
	// Past the grace the decline must not stall the queue: b takes it.
	fc.Advance(affinityGrace)
	lb := claimSoon(t, p, b)
	if lb.Unit.Key != "sib" {
		t.Fatalf("b claimed %q after the grace, want sib", lb.Unit.Key)
	}
	report(p, b, lb.Job, lb.Unit.Key, lb.Epoch, search.Verdict{Pass: true}, "")
	if r := <-r1; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestAffinityQuarantineReroutes: quarantining a worker clears its
// fork-site ownerships — its requeued unit routes to a healthy worker,
// which takes over the site.
func TestAffinityQuarantineReroutes(t *testing.T) {
	p := New(Options{QuarantineAfter: 1})
	defer p.Close()
	bad, _, _ := p.AddRemote("bad", 1, 0)
	good, _, _ := p.AddRemote("good", 1, 0)
	j := p.Register("j0001", &fakeEval{})

	r1 := evalSiteAsync(j, "u1", 5)
	lb := claimSoon(t, p, bad) // bad owns site 5 now
	if acc, err := report(p, bad, lb.Job, lb.Unit.Key, lb.Epoch, search.Verdict{}, "oom"); err != nil || !acc {
		t.Fatalf("failure report: accepted=%v err=%v", acc, err)
	}
	for _, w := range p.Workers() {
		if w.ID == bad && w.State != WorkerQuarantined {
			t.Fatalf("bad worker state %s, want quarantined", w.State)
		}
	}
	// The requeued unit must reach the healthy worker even though its
	// site belonged to the quarantined one — and ownership moves.
	lg := claimSoon(t, p, good)
	if lg.Unit.Key != "u1" {
		t.Fatalf("good claimed %q, want the rerouted u1", lg.Unit.Key)
	}
	p.mu.Lock()
	owner := p.aff[siteKey("j0001", lg.Unit)]
	p.mu.Unlock()
	if owner != good {
		t.Fatalf("site owner %q after reroute, want %q", owner, good)
	}
	report(p, good, lg.Job, lg.Unit.Key, lg.Epoch, search.Verdict{Pass: true}, "")
	if r := <-r1; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}
