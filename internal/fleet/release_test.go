package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpmix/internal/search"
)

// TestPoolReleasesFinishedJob: once a job's units have settled and its
// handle is dropped, nothing in the pool keeps the job's evaluator —
// in the service a runner with its engines — reachable. A queue that
// only resliced past taken shards kept them in its backing array.
func TestPoolReleasesFinishedJob(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.Start(2)
	released := runAndDrop(t, p)
	runtime.GC()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("a finished job's evaluator is still reachable from the pool")
	}
}

// runAndDrop settles a few units of one job concurrently and drops the
// job; the returned channel closes when its evaluator is collected.
//
//go:noinline
func runAndDrop(t *testing.T, p *Pool) <-chan struct{} {
	ev := &fakeEval{}
	done := make(chan struct{})
	runtime.SetFinalizer(ev, func(*fakeEval) { close(done) })
	j := p.Register("j0001", ev)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := j.EvaluateUnit(search.EvalUnit{Key: fmt.Sprintf("k%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	return done
}
