package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpmix/internal/search"
)

// fakeEval settles units instantly: pass iff the key has even length.
type fakeEval struct {
	mu    sync.Mutex
	calls int
}

func (f *fakeEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return search.Verdict{Pass: len(u.Key)%2 == 0, Attempts: 1}, nil
}

// gateEval blocks every evaluation until the gate closes.
type gateEval struct {
	gate    chan struct{}
	started chan string // receives the unit key as evaluation begins
}

func (g *gateEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	if g.started != nil {
		g.started <- u.Key
	}
	<-g.gate
	return search.Verdict{Pass: true, Attempts: 1}, nil
}

// mutable is an in-process worker whose heartbeats a test can silence
// without killing it, so the monitor must detect the silence itself.
type mutable struct {
	local
	mute atomic.Bool
}

func (c *mutable) Heartbeat(ctx context.Context, inflight int) error {
	if c.mute.Load() {
		return nil
	}
	return c.local.Heartbeat(ctx, inflight)
}

// startMutable adds n in-process workers on the shared runtime and
// returns them by ID.
func startMutable(p *Pool, n int) map[string]*mutable {
	ws := make(map[string]*mutable)
	for i := 0; i < n; i++ {
		c := &mutable{local: local{p: p, id: p.register("", false, 1, 1)}}
		ws[c.id] = c
		go p.serveLocal(c)
	}
	return ws
}

func waitBusy(t *testing.T, p *Pool) WorkerInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range p.Workers() {
			if w.State == WorkerBusy {
				return w
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no worker went busy")
	return WorkerInfo{}
}

func TestPoolShardsAllUnits(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.Start(4)
	ev := &fakeEval{}
	j := p.Register("j0001", ev)

	const units = 50
	var wg sync.WaitGroup
	errs := make(chan error, units)
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := strings.Repeat("k", i%5+1)
			v, err := j.EvaluateUnit(search.EvalUnit{Key: key, Label: fmt.Sprintf("u%d", i)})
			if err != nil {
				errs <- err
				return
			}
			if want := len(key)%2 == 0; v.Pass != want {
				errs <- fmt.Errorf("unit %d: pass=%v want %v", i, v.Pass, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev.calls != units {
		t.Errorf("%d evaluations for %d units", ev.calls, units)
	}
	done := 0
	for _, w := range p.Workers() {
		done += w.Done
	}
	if done != units {
		t.Errorf("workers account %d accepted deliveries, want %d", done, units)
	}
}

// TestPoolKillReassigns kills the lease holder mid-evaluation: the
// shard must requeue to a live worker, exactly one verdict must be
// delivered, and the dead worker's late result must be discarded.
func TestPoolKillReassigns(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond})
	defer p.Close()
	p.Start(2)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 4)}
	j := p.Register("j0001", g)

	res := make(chan error, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "piece"})
		if err == nil && !v.Pass {
			err = fmt.Errorf("verdict flipped")
		}
		res <- err
	}()
	<-g.started // first worker is inside Evaluate
	victim := waitBusy(t, p)
	if err := p.Kill(victim.ID); err != nil {
		t.Fatal(err)
	}
	<-g.started   // the surviving worker re-claims the shard
	close(g.gate) // release both evaluations
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	// The dead worker's late delivery must be discarded, not double-sent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var dead WorkerInfo
		for _, w := range p.Workers() {
			if w.ID == victim.ID {
				dead = w
			}
		}
		if dead.State == WorkerDead && dead.Discarded == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s: state=%s discarded=%d, want dead/1", victim.ID, dead.State, dead.Discarded)
		}
		time.Sleep(time.Millisecond)
	}
	if p.Alive() != 1 {
		t.Errorf("Alive() = %d after one kill of two workers", p.Alive())
	}
}

// TestPoolReassignCap: a shard that outlives MaxReassign lease holders
// fails instead of looping forever.
func TestPoolReassignCap(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, MaxReassign: 2})
	defer p.Close()
	p.Start(4)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 8)}
	defer close(g.gate)
	j := p.Register("j0001", g)

	res := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "cursed"})
		res <- err
	}()
	for i := 0; i < 3; i++ {
		<-g.started
		victim := waitBusy(t, p)
		if err := p.Kill(victim.ID); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-res:
		if err == nil || !strings.Contains(err.Error(), "reassigned") {
			t.Fatalf("want reassignment-cap error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard did not fail after exhausting its reassignment budget")
	}
}

// TestPoolHeartbeatExpiry: a worker that goes silent without an
// explicit Kill — the monitor must detect the stale heartbeat and
// reassign its shard.
func TestPoolHeartbeatExpiry(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, Expiry: 30 * time.Millisecond})
	defer p.Close()
	workers := startMutable(p, 2)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 4)}
	j := p.Register("j0001", g)

	res := make(chan error, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "piece"})
		if err == nil && !v.Pass {
			err = fmt.Errorf("verdict flipped")
		}
		res <- err
	}()
	<-g.started
	victim := waitBusy(t, p)
	workers[victim.ID].mute.Store(true) // silent death: no Kill call
	<-g.started                         // monitor reassigned to the survivor
	close(g.gate)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Workers() {
		if w.ID == victim.ID && w.State != WorkerDead {
			t.Errorf("silent worker %s not declared dead (state %s)", w.ID, w.State)
		}
	}
}

func TestPoolNoWorkers(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	j := p.Register("j0001", &fakeEval{})
	if _, err := j.EvaluateUnit(search.EvalUnit{Key: "k"}); err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("want no-live-workers error, got %v", err)
	}
}

func TestPoolCloseFailsQueued(t *testing.T) {
	p := New(Options{})
	p.Start(1)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 2)}
	j := p.Register("j0001", g)

	first := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "running"})
		first <- err
	}()
	<-g.started // the only worker is busy; the next unit must queue
	second := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k2", Label: "queued"})
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second unit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if err := <-second; err == nil || !strings.Contains(err.Error(), "pool closed") {
		t.Fatalf("queued shard: want pool-closed error, got %v", err)
	}
	close(g.gate) // let the in-flight evaluation finish and deliver
	if err := <-first; err != nil {
		t.Fatalf("in-flight shard should still deliver: %v", err)
	}
}

// cancelEval is a job's evaluator whose runs stop with an Interrupted
// verdict once the job's context is cancelled, like a UnitRunner's.
type cancelEval struct {
	ctx     context.Context
	started chan struct{}
	calls   atomic.Int32
}

func (c *cancelEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	c.calls.Add(1)
	c.started <- struct{}{}
	<-c.ctx.Done()
	return search.Verdict{Interrupted: true}, nil
}

// TestPoolLocalCancelSettles: cancelling a job while an in-process
// worker evaluates its unit settles the unit interrupted — delivered to
// the cancelled search, never requeued for another run.
func TestPoolLocalCancelSettles(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.Start(2)
	ctx, cancel := context.WithCancel(context.Background())
	ev := &cancelEval{ctx: ctx, started: make(chan struct{}, 4)}
	j := p.Register("j0001", ev)
	res := evalAsync(j, "k1")
	<-ev.started
	cancel()
	if r := <-res; r.err != nil || !r.v.Interrupted {
		t.Fatalf("cancelled unit %+v, want an interrupted verdict", r)
	}
	if n := ev.calls.Load(); n != 1 {
		t.Fatalf("%d evaluations of the cancelled unit, want 1 (no requeue)", n)
	}
	if p.QueueLen() != 0 {
		t.Fatalf("cancelled unit left %d shards queued", p.QueueLen())
	}
}

// errEval fails every evaluation.
type errEval struct{ calls atomic.Int32 }

var errBroken = errors.New("broken evaluation")

func (e *errEval) Evaluate(search.EvalUnit) (search.Verdict, error) {
	e.calls.Add(1)
	return search.Verdict{}, errBroken
}

// TestPoolLocalErrorFailsUnit: an in-process evaluation error fails the
// unit's search as it is — not requeued, and never a quarantine strike:
// every local worker stays assignable.
func TestPoolLocalErrorFailsUnit(t *testing.T) {
	p := New(Options{QuarantineAfter: 1})
	defer p.Close()
	p.Start(2)
	ev := &errEval{}
	j := p.Register("j0001", ev)
	const units = 3
	for i := 0; i < units; i++ {
		if _, err := j.EvaluateUnit(search.EvalUnit{Key: fmt.Sprintf("k%d", i)}); !errors.Is(err, errBroken) {
			t.Fatalf("unit %d: err=%v, want the evaluation error", i, err)
		}
	}
	if n := ev.calls.Load(); n != units {
		t.Fatalf("%d evaluations for %d failing units, want no requeue", n, units)
	}
	if p.Alive() != 2 {
		t.Fatalf("Alive() = %d after local evaluation errors, want 2", p.Alive())
	}
	for _, w := range p.Workers() {
		if w.State == WorkerQuarantined || w.Fails != 0 {
			t.Errorf("worker %s: state=%s fails=%d, want no strikes", w.ID, w.State, w.Fails)
		}
	}
}

// TestPoolDrainRemoteKeepsLocal: DrainRemote stops remote leases only;
// in-process workers keep claiming.
func TestPoolDrainRemoteKeepsLocal(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.Start(1)
	p.DrainRemote()
	j := p.Register("j0001", &fakeEval{})
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "kk"}); err != nil || !v.Pass {
		t.Fatalf("unit during a remote drain: %+v err=%v", v, err)
	}
	if ws := p.Workers(); len(ws) != 1 || ws[0].Done != 1 {
		t.Fatalf("workers %+v, want w1 with one delivery", ws)
	}
}

// TestPoolKilledLocalStaysDead: a killed in-process worker stays dead
// under its ID — it never re-registers — and the survivors take the
// work.
func TestPoolKilledLocalStaysDead(t *testing.T) {
	p := New(Options{Heartbeat: 5 * time.Millisecond})
	defer p.Close()
	p.Start(2)
	if err := p.Kill("w1"); err != nil {
		t.Fatal(err)
	}
	j := p.Register("j0001", &fakeEval{})
	for i := 0; i < 5; i++ {
		if _, err := j.EvaluateUnit(search.EvalUnit{Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // several heartbeat ticks of the dead worker's runtime
	ws := p.Workers()
	if len(ws) != 2 {
		t.Fatalf("%d workers registered after a kill, want 2 (no re-registration)", len(ws))
	}
	for _, w := range ws {
		switch {
		case w.ID == "w1" && w.State != WorkerDead:
			t.Errorf("killed w1 is %s, want dead", w.State)
		case w.ID == "w2" && w.Done != 5:
			t.Errorf("w2 delivered %d units, want 5", w.Done)
		}
	}
}
