package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fpmix/internal/jobs"
)

// TestRunnerCacheBounded: a worker serving more jobs than runnerCap
// keeps only the runnerCap most recently used runners — each holds a
// whole built image — and a cached job reuses its runner without
// fetching the spec again. All the jobs are over one image, which the
// worker's artifact store builds once, evictions included.
func TestRunnerCacheBounded(t *testing.T) {
	var mu sync.Mutex
	fetches := map[string]int{}
	fetched := func(job string) int {
		mu.Lock()
		defer mu.Unlock()
		return fetches["/api/v1/fleet/jobs/"+job+"/spec"]
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fetches[r.URL.Path]++
		mu.Unlock()
		json.NewEncoder(w).Encode(jobs.Spec{Kernel: "ep", Class: "W"})
	}))
	defer ts.Close()
	w := &worker{c: NewClient(ts.URL, nil), runCtx: context.Background(), arts: &jobs.ArtifactStore{}}
	ctx := context.Background()
	for i := 0; i < runnerCap+2; i++ {
		if _, err := w.runnerFor(ctx, fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.runners) != runnerCap {
		t.Fatalf("%d runners cached after %d jobs, want the cap %d", len(w.runners), runnerCap+2, runnerCap)
	}
	last := fmt.Sprintf("j%d", runnerCap+1)
	r1, _ := w.runnerFor(ctx, last)
	r2, _ := w.runnerFor(ctx, last)
	if r1 != r2 || w.runners[0].job != last {
		t.Fatal("a cached job did not reuse its runner as the most recently used")
	}
	if n := fetched(last); n != 1 {
		t.Fatalf("spec of a cached job fetched %d times, want 1", n)
	}
	if _, err := w.runnerFor(ctx, "j0"); err != nil {
		t.Fatal(err)
	}
	if n := fetched("j0"); n != 2 {
		t.Fatalf("evicted job j0 fetched its spec %d times, want a rebuild (2)", n)
	}
	if n := w.arts.Stats.References.Load(); n != 1 {
		t.Fatalf("%d reference runs for one image across %d jobs, want 1", n, runnerCap+2)
	}
}
