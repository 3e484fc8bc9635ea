package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fpmix/internal/faultinject"
)

// countingServer answers every fleet POST with the given payload and
// counts deliveries per path.
func countingServer(t *testing.T, payload any) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestClientResetRetries: a NetReset faults the attempt before the
// request lands — the server must see exactly one (clean, retried)
// delivery and the call succeeds.
func TestClientResetRetries(t *testing.T) {
	ts, hits := countingServer(t, ReportResponse{Accepted: []bool{true}})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Reset: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1 (reset never reaches it)", got)
	}
	st := c.net.Stats()
	if st.Resets != 1 {
		t.Fatalf("stats %+v, want exactly one reset", st)
	}
}

// TestClientDropDuplicates: a NetDrop loses the response after the
// server processed the request — the retry is a duplicate delivery, so
// the server sees two.
func TestClientDropDuplicates(t *testing.T) {
	ts, hits := countingServer(t, ReportResponse{Accepted: []bool{true}})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Drop: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2 (original + retry)", got)
	}
}

// TestClientDupDelivers: a NetDup sends the request twice back to
// back; the call succeeds with the first response and the duplicate's
// response is discarded (it must not overwrite the decoded result).
func TestClientDupDelivers(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		// First delivery accepted; the duplicate is rejected the way the
		// daemon's idempotency tokens would reject it.
		json.NewEncoder(w).Encode(ReportResponse{Accepted: []bool{n == 1}})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Dup: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v, want first response to win", acc, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2", got)
	}
}

// TestClientGoneTerminal: 410 maps to ErrGone immediately — no retry,
// the worker must re-register instead.
func TestClientGoneTerminal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown worker"})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Heartbeat(context.Background(), "r9", 0); !errors.Is(err, ErrGone) {
		t.Fatalf("Heartbeat err = %v, want ErrGone", err)
	}
	if _, err := c.Report(context.Background(), ReportRequest{Worker: "r9"}); !errors.Is(err, ErrGone) {
		t.Fatalf("Report err = %v, want ErrGone", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2 (no retries on 410)", got)
	}
}

// TestClientRejectionTerminal: a non-200 answer other than 410 is a
// server-side rejection — retrying cannot help, one delivery only.
func TestClientRejectionTerminal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Register(context.Background(), "w", 1, 0); err == nil {
		t.Fatal("Register against 400 succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1", got)
	}
}

// TestClientTransportRetry: real connection failures (server down for
// the first attempts) retry with backoff until the server answers.
func TestClientTransportRetry(t *testing.T) {
	ts, _ := countingServer(t, RegisterResponse{ID: "r1", HeartbeatMS: 100, ExpiryMS: 800})
	// Point at a dead port first: every attempt fails, the call errors
	// out after maxAttempts without hanging.
	dead := NewClient("http://127.0.0.1:1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := dead.Register(ctx, "w", 1, 0); err == nil {
		t.Fatal("Register against a dead port succeeded")
	}
	// Against a live server the same call lands.
	live := NewClient(ts.URL, nil)
	resp, err := live.Register(context.Background(), "w", 1, 0)
	if err != nil || resp.ID != "r1" {
		t.Fatalf("Register: %+v err=%v", resp, err)
	}
}

// TestClientDelayStalls: a NetDelay decision stalls the attempt but
// the RPC still lands exactly once.
func TestClientDelayStalls(t *testing.T) {
	ts, hits := countingServer(t, HeartbeatResponse{State: "idle"})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Delay: 1}, 30*time.Millisecond))
	start := time.Now()
	if _, err := c.Heartbeat(context.Background(), "r1", 2); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delayed heartbeat returned in %v, want ≥30ms", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1", got)
	}
}
