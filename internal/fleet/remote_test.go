package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fpmix/internal/search"
)

// evalAsync runs EvaluateUnit in a goroutine and returns the result
// channel.
func evalAsync(j *JobHandle, key string) chan shardResult {
	out := make(chan shardResult, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: key, Label: key})
		out <- shardResult{v: v, err: err}
	}()
	return out
}

// report delivers one outcome through ReportBatch; a non-empty evalErr
// is a worker-side evaluation error.
func report(p *Pool, id, job, key string, epoch int, v search.Verdict, evalErr string) (bool, error) {
	r := Report{Job: job, Key: key, Epoch: epoch, Verdict: v}
	if evalErr != "" {
		r.Err = errors.New(evalErr)
	}
	acc, err := p.ReportBatch(id, []Report{r})
	if err != nil {
		return false, err
	}
	return acc[0], nil
}

// claimSoon polls Claim (for a single unit) until a lease arrives (the
// shard queue is fed by a concurrent EvaluateUnit).
func claimSoon(t *testing.T, p *Pool, id string) *Lease {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leases, _, err := p.Claim(id, 50*time.Millisecond, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) > 0 {
			return &leases[0]
		}
	}
	t.Fatal("no lease arrived")
	return nil
}

// TestRemoteClaimReport drives the basic remote cycle: register, claim,
// report, verdict delivered to the waiting unit.
func TestRemoteClaimReport(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, Expiry: 30 * time.Second})
	defer p.Close()
	id, hb, exp := p.AddRemote("rack1", 1, 0)
	if hb <= 0 || exp <= 0 {
		t.Fatalf("AddRemote returned heartbeat %v expiry %v", hb, exp)
	}
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	if lease.Job != "j0001" || lease.Unit.Key != "k1" {
		t.Fatalf("lease %+v, want j0001/k1", lease)
	}
	acc, err := report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, "")
	if err != nil || !acc {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	r := <-res
	if r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
	for _, w := range p.Workers() {
		if w.ID == id && (w.Done != 1 || !w.Remote || w.Name != "rack1") {
			t.Errorf("worker snapshot %+v, want done=1 remote name=rack1", w)
		}
	}
}

// TestRemoteReportIdempotent: a duplicated report RPC (the retry after
// a dropped response) must be discarded — the verdict lands exactly
// once.
func TestRemoteReportIdempotent(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.AddRemote("dup", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	if acc, err := report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, ""); err != nil || !acc {
		t.Fatalf("first report: accepted=%v err=%v", acc, err)
	}
	if acc, err := report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: false}, ""); err != nil || acc {
		t.Fatalf("duplicate report: accepted=%v err=%v, want discarded", acc, err)
	}
	if r := <-res; !r.v.Pass {
		t.Fatal("duplicate delivery overwrote the verdict")
	}
	for _, w := range p.Workers() {
		if w.ID == id && w.Discarded != 1 {
			t.Errorf("discarded=%d, want 1", w.Discarded)
		}
	}
}

// TestRemoteClaimRedelivery: when the claim response is lost, the
// worker's next claim re-delivers the same lease with the same epoch —
// the idempotency token is unchanged — never a fresh-epoch duplicate of
// a unit the worker already holds.
func TestRemoteClaimRedelivery(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.AddRemote("lossy", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	res2 := evalAsync(j, "k2long") // a second unit is queued behind
	first := claimSoon(t, p, id)
	again, state, err := p.Claim(id, 0, 1, 0)
	if err != nil || len(again) == 0 {
		t.Fatalf("re-claim: leases=%v state=%s err=%v", again, state, err)
	}
	// Held leases come back first; the re-claim may also top up with the
	// queued second unit, but the held one keeps its epoch and is never
	// duplicated.
	if again[0].Unit.Key != first.Unit.Key || again[0].Epoch != first.Epoch {
		t.Fatalf("re-claim delivered %s@%d, want %s@%d", again[0].Unit.Key, again[0].Epoch, first.Unit.Key, first.Epoch)
	}
	for _, l := range again[1:] {
		if l.Unit.Key == first.Unit.Key {
			t.Fatalf("re-claim duplicated held unit %s under epoch %d", l.Unit.Key, l.Epoch)
		}
	}
	if acc, _ := report(p, id, first.Job, first.Unit.Key, first.Epoch, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("report after redelivery not accepted")
	}
	second := claimSoon(t, p, id)
	if second.Unit.Key == first.Unit.Key {
		t.Fatal("second claim re-delivered a settled unit")
	}
	report(p, id, second.Job, second.Unit.Key, second.Epoch, search.Verdict{Pass: true}, "")
	<-res
	<-res2
}

// TestRemoteStaleEpochDiscarded: a lease broken by expiry and
// reassigned to another worker must reject the first worker's late
// report — its epoch is stale, so the unit cannot double-count.
func TestRemoteStaleEpochDiscarded(t *testing.T) {
	fc := newFakeClock()
	p := New(Options{Heartbeat: time.Hour, Expiry: time.Minute, Clock: fc.Now})
	defer p.Close()
	dead, _, _ := p.AddRemote("doomed", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	stale := claimSoon(t, p, dead)

	// The doomed worker partitions: no beats, lease expires on the
	// pool's clock, shard requeues.
	fc.Advance(2 * time.Minute)
	surv, _, _ := p.AddRemote("survivor", 1, 0)
	p.sweep()
	fresh := claimSoon(t, p, surv)
	if fresh.Unit.Key != stale.Unit.Key || fresh.Epoch == stale.Epoch {
		t.Fatalf("reassigned lease %s@%d vs original %s@%d: want same unit, new epoch",
			fresh.Unit.Key, fresh.Epoch, stale.Unit.Key, stale.Epoch)
	}
	// The partition heals; the doomed worker's late report must die.
	if acc, err := report(p, dead, stale.Job, stale.Unit.Key, stale.Epoch, search.Verdict{Pass: false}, ""); acc || err == nil {
		t.Fatalf("late report from expired worker: accepted=%v err=%v, want rejected with ErrUnknownWorker", acc, err)
	}
	if acc, _ := report(p, surv, fresh.Job, fresh.Unit.Key, fresh.Epoch, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("current holder's report rejected")
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}

// TestRemoteQuarantine: QuarantineAfter consecutive worker-reported
// failures bench the worker — visible in the registry, still
// heartbeating, never assigned again — and its units reassign.
func TestRemoteQuarantine(t *testing.T) {
	p := New(Options{QuarantineAfter: 2})
	defer p.Close()
	bad, _, _ := p.AddRemote("bad", 1, 0)
	good, _, _ := p.AddRemote("good", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")

	for i := 0; i < 2; i++ {
		lease := claimSoon(t, p, bad)
		acc, err := report(p, bad, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{}, "oom")
		if err != nil || !acc {
			t.Fatalf("failure report %d: accepted=%v err=%v", i, acc, err)
		}
	}
	if leases, state, err := p.Claim(bad, 0, 1, 0); err != nil || len(leases) != 0 || state != WorkerQuarantined {
		t.Fatalf("claim after quarantine: leases=%v state=%s err=%v, want none/quarantined", leases, state, err)
	}
	if st, err := p.HeartbeatLoad(bad, -1); err != nil || st != WorkerQuarantined {
		t.Fatalf("quarantined worker heartbeat: state=%s err=%v, want it kept alive", st, err)
	}
	lease := claimSoon(t, p, good)
	if acc, _ := report(p, good, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("healthy worker's report rejected")
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v after quarantine reassignment", r)
	}
	for _, w := range p.Workers() {
		if w.ID == bad && (w.State != WorkerQuarantined || w.Fails != 2) {
			t.Errorf("bad worker snapshot %+v, want quarantined fails=2", w)
		}
	}
	if p.Alive() != 1 {
		t.Errorf("Alive() = %d with one healthy and one quarantined worker", p.Alive())
	}
}

// TestRemoteFailureCountResets: a success between failures resets the
// quarantine strike count.
func TestRemoteFailureCountResets(t *testing.T) {
	p := New(Options{QuarantineAfter: 2})
	defer p.Close()
	id, _, _ := p.AddRemote("flaky", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	keys := []string{"k1", "k2", "k3"}
	var results []chan shardResult
	for _, k := range keys {
		results = append(results, evalAsync(j, k))
	}
	// fail, succeed, fail: never two consecutive — no quarantine.
	for i := 0; i < 3; i++ {
		lease := claimSoon(t, p, id)
		if i == 1 {
			report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, "")
		} else {
			report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{}, "flake")
		}
	}
	// Settle whatever remains.
	for done := false; !done; {
		leases, state, err := p.Claim(id, 50*time.Millisecond, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if state == WorkerQuarantined {
			t.Fatal("worker quarantined despite non-consecutive failures")
		}
		if len(leases) == 0 {
			done = true
			continue
		}
		for _, lease := range leases {
			report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, "")
		}
	}
	for _, res := range results {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestRemoteInterruptedReportRequeues: a worker draining gracefully
// reports its unit interrupted; the pool must requeue it for another
// worker — never deliver the interrupt to a live search — and must not
// count it as a quarantine strike.
func TestRemoteInterruptedReportRequeues(t *testing.T) {
	p := New(Options{QuarantineAfter: 1})
	defer p.Close()
	leaving, _, _ := p.AddRemote("leaving", 1, 0)
	staying, _, _ := p.AddRemote("staying", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, leaving)
	acc, err := report(p, leaving, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Interrupted: true}, "")
	if err != nil || !acc {
		t.Fatalf("interrupt report: accepted=%v err=%v", acc, err)
	}
	select {
	case r := <-res:
		t.Fatalf("interrupted verdict reached the search: %+v", r)
	default:
	}
	for _, w := range p.Workers() {
		if w.ID == leaving && w.State == WorkerQuarantined {
			t.Fatal("graceful interrupt counted as a quarantine strike")
		}
	}
	re := claimSoon(t, p, staying)
	if re.Unit.Key != "k1" {
		t.Fatalf("requeued unit %q, want k1", re.Unit.Key)
	}
	report(p, staying, re.Job, re.Unit.Key, re.Epoch, search.Verdict{Pass: true}, "")
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}

// TestRemoteFallbackInProcess: with Options.Fallback, a pool whose
// last assignable worker dies degrades to in-process evaluation
// instead of failing units — queued, in-flight and future ones alike.
func TestRemoteFallbackInProcess(t *testing.T) {
	p := New(Options{Fallback: true, Heartbeat: time.Hour, Expiry: time.Minute})
	defer p.Close()
	ev := &fakeEval{}
	j := p.Register("j0001", ev)

	// No workers at all: the unit runs in-process immediately.
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1"}); err != nil || !v.Pass {
		t.Fatalf("fallback verdict %+v err=%v, want pass", v, err)
	}
	if p.Fallbacks() != 1 {
		t.Fatalf("Fallbacks() = %d, want 1", p.Fallbacks())
	}

	// A remote worker joins, claims a unit, then dies: the unit must
	// fall back, not strand.
	id, _, _ := p.AddRemote("mortal", 1, 0)
	res := evalAsync(j, "k2")
	claimSoon(t, p, id)
	if err := p.Kill(id); err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("fallback after worker death: %+v", r)
	}
	if p.Fallbacks() != 2 {
		t.Errorf("Fallbacks() = %d, want 2", p.Fallbacks())
	}
}

// TestRemoteUnknownWorker: every RPC against an unregistered or dead
// identity reports ErrUnknownWorker (the wire's 410).
func TestRemoteUnknownWorker(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	if _, err := p.HeartbeatLoad("r99", -1); err != ErrUnknownWorker {
		t.Errorf("Heartbeat(r99) err = %v", err)
	}
	if _, _, err := p.Claim("r99", 0, 1, 0); err != ErrUnknownWorker {
		t.Errorf("Claim(r99) err = %v", err)
	}
	if _, err := report(p, "r99", "j", "k", 1, search.Verdict{}, ""); err != ErrUnknownWorker {
		t.Errorf("Report(r99) err = %v", err)
	}
	id, _, _ := p.AddRemote("gone", 1, 0)
	p.Kill(id)
	if _, err := p.HeartbeatLoad(id, -1); err != ErrUnknownWorker {
		t.Errorf("Heartbeat(dead) err = %v", err)
	}
}

// TestRemoteDrain: DrainRemote stops new remote leases while letting
// the in-flight one deliver; ReleaseLeases then breaks whatever
// remains (after the owning searches are gone).
func TestRemoteDrain(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.AddRemote("draining", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res1 := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	p.DrainRemote()
	// In-flight lease still delivers.
	if acc, _ := report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("in-flight report rejected during drain")
	}
	if r := <-res1; r.err != nil || !r.v.Pass {
		t.Fatalf("drained in-flight unit %+v", r)
	}
	if n := p.AwaitRemoteIdle(time.Second); n != 0 {
		t.Fatalf("AwaitRemoteIdle = %d after delivery", n)
	}
	// No new lease while draining.
	if leases, _, _ := p.Claim(id, 0, 1, 0); len(leases) != 0 {
		t.Fatal("drain granted a new remote lease")
	}
}

// TestRemoteReleaseBreaksLease: ReleaseLeases settles a remote
// shard interrupted (the shutdown path, after job cancellation) and
// the worker's late report is discarded.
func TestRemoteReleaseBreaksLease(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.AddRemote("stuck", 1, 0)
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	p.ReleaseRemoteLeases()
	if r := <-res; r.err != nil || !r.v.Interrupted {
		t.Fatalf("released unit %+v, want interrupted", r)
	}
	if acc, err := report(p, id, lease.Job, lease.Unit.Key, lease.Epoch, search.Verdict{Pass: true}, ""); acc || err != nil {
		t.Fatalf("late report after release: accepted=%v err=%v, want discarded", acc, err)
	}
}

// TestRemoteInterruptQueued: InterruptQueued settles queued shards and
// every later-enqueued unit as interrupted.
func TestRemoteInterruptQueued(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.AddRemote("idle", 1, 0) // assignable, so units queue instead of erroring
	j := p.Register("j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.InterruptQueued()
	if r := <-res; r.err != nil || !r.v.Interrupted {
		t.Fatalf("queued unit %+v, want interrupted", r)
	}
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "k2"}); err != nil || !v.Interrupted {
		t.Fatalf("post-interrupt unit %+v err=%v, want interrupted", v, err)
	}
}

// TestClaimParksOnKnownLeases: a worker topping up its batch while it
// holds leases must not get an instant re-delivery of what it already
// knows — the claim parks until new work arrives or the wait ends. It
// returns at once only when it grants a lease or the worker knows of
// fewer leases than it holds (a lost response). The lease cap is the
// batch the worker declared.
func TestClaimParksOnKnownLeases(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.AddRemote("topper", 1, 2)
	j := p.Register("j0001", &fakeEval{})
	var results []chan shardResult
	for _, k := range []string{"k1", "k2", "k3"} {
		results = append(results, evalAsync(j, k))
		waitQueue(t, p, len(results))
	}
	held, _, err := p.Claim(id, 0, 3, 0)
	if err != nil || len(held) != 2 {
		t.Fatalf("claim: %d leases err=%v, want the declared batch of 2", len(held), err)
	}

	// At capacity, every lease known: park for the whole wait.
	start := time.Now()
	if leases, _, err := p.Claim(id, 100*time.Millisecond, 1, 2); err != nil || len(leases) != 0 {
		t.Fatalf("claim with all leases known: leases=%v err=%v, want none", leases, err)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("claim with all leases known returned after %v, want it parked", waited)
	}
	// The worker lost track of one: re-delivered at once, same epochs.
	again, _, err := p.Claim(id, time.Minute, 1, 1)
	if err != nil || len(again) != 2 || again[0].Epoch != held[0].Epoch || again[1].Epoch != held[1].Epoch {
		t.Fatalf("claim after a lost response: %v err=%v, want both held leases re-delivered", again, err)
	}

	// A parked claim returns as soon as a report frees room for a grant.
	parked := make(chan []Lease, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leases, _, err := p.Claim(id, time.Minute, 1, 2)
		if err != nil {
			t.Error(err)
		}
		parked <- leases
	}()
	if acc, err := report(p, id, held[0].Job, held[0].Unit.Key, held[0].Epoch, search.Verdict{Pass: true}, ""); err != nil || !acc {
		t.Fatalf("report: accepted=%v err=%v", acc, err)
	}
	wg.Wait()
	got := <-parked
	if len(got) == 0 || got[len(got)-1].Unit.Key != "k3" {
		t.Fatalf("parked claim got %v, want the newly granted k3", got)
	}
	for _, l := range got {
		report(p, id, l.Job, l.Unit.Key, l.Epoch, search.Verdict{Pass: true}, "")
	}
	for _, res := range results {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
}
