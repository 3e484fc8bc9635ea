package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
)

// ErrGone reports that the daemon no longer knows this worker ID (410
// Gone): the daemon restarted, or an operator killed the worker. The
// recovery is always the same — re-register under a fresh identity. It
// wraps fleet.ErrUnknownWorker, the condition the worker runtime ends
// a registration on.
var ErrGone = fmt.Errorf("remote: worker identity gone, re-register: %w", fleet.ErrUnknownWorker)

// errInjected marks transport errors manufactured by the network
// chaos injector; they retry exactly like real ones.
type errInjected struct{ kind faultinject.NetKind }

func (e errInjected) Error() string {
	return fmt.Sprintf("remote: injected network fault (%s)", e.kind)
}

// Client is the worker-side transport: JSON POSTs with per-RPC
// deadlines, jittered exponential retry on transport failures, and an
// optional deterministic network-fault injector exercising the
// daemon's idempotency guarantees (dropped responses force duplicate
// deliveries; resets force clean retries; see faultinject.NetKind).
type Client struct {
	base string
	hc   *http.Client
	net  *faultinject.NetInjector

	mu  sync.Mutex
	rng *rand.Rand
	seq int
}

// Transport tuning. Every RPC gets its own deadline; retries back off
// exponentially from retryBase with full jitter, capped at retryCap.
const (
	rpcTimeout  = 10 * time.Second
	maxAttempts = 5
	retryBase   = 100 * time.Millisecond
	retryCap    = 2 * time.Second
)

// NewClient builds a transport against the daemon base URL
// (e.g. http://127.0.0.1:8606). A non-nil injector arms deterministic
// network chaos on every RPC.
func NewClient(base string, net *faultinject.NetInjector) *Client {
	return &Client{
		base: base,
		hc:   &http.Client{},
		net:  net,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Register joins the fleet, declaring the worker's evaluation
// parallelism and lease batch, retrying transient failures.
func (c *Client) Register(ctx context.Context, name string, parallel, batch int) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.call(ctx, "register", name, "/api/v1/fleet/register",
		RegisterRequest{Name: name, Parallel: parallel, Batch: batch}, &resp, rpcTimeout)
	return resp, err
}

// Claim long-polls for up to max new leases while the worker holds
// held. The RPC deadline covers the server's long-poll window plus
// transport grace.
func (c *Client) Claim(ctx context.Context, worker string, wait time.Duration, max, held int) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.call(ctx, "claim", c.nextKey(worker), "/api/v1/fleet/claim",
		ClaimRequest{Worker: worker, WaitMS: wait.Milliseconds(), Max: max, Held: held}, &resp, wait+rpcTimeout)
	return resp, err
}

// Heartbeat refreshes the worker's lease clock, reporting how many
// evaluations are running right now. One attempt only — a missed beat
// is harmless well under the expiry budget, and the next tick retries
// naturally.
func (c *Client) Heartbeat(ctx context.Context, worker string, inflight int) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.attempt(ctx, "heartbeat", c.nextKey(worker), 0, "/api/v1/fleet/heartbeat",
		HeartbeatRequest{Worker: worker, InFlight: inflight}, &resp, rpcTimeout)
	return resp, err
}

// nextKey derives a fresh chaos key (prefix plus a client-local
// sequence number) so successive claims and heartbeats roll
// independent fault decisions.
func (c *Client) nextKey(prefix string) string {
	c.mu.Lock()
	c.seq++
	k := prefix + "#" + strconv.Itoa(c.seq)
	c.mu.Unlock()
	return k
}

// Report delivers a batch of verdicts (or worker-side errors),
// retrying until the daemon answers. Accepted[i]=false is a normal
// outcome for a unit — a duplicate of a delivery that already landed,
// or a lease lost to reassignment; either way the worker moves on. The
// chaos key is derived from the batch's (job, key) pairs, so retries
// of one logical batch roll one fault decision while distinct batches
// roll independently.
func (c *Client) Report(ctx context.Context, req ReportRequest) ([]bool, error) {
	var b strings.Builder
	for i, r := range req.Reports {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(r.Job)
		b.WriteByte('\x00')
		b.WriteString(r.Key)
	}
	var resp ReportResponse
	err := c.call(ctx, "report", b.String(), "/api/v1/fleet/report",
		req, &resp, rpcTimeout)
	return resp.Accepted, err
}

// Backoff sleeps the client's jittered exponential retry delay before
// the given attempt (none for attempt 0; the delay saturates past the
// client's deepest retry step) — exported so the worker's register,
// claim and report loops share the transport's backoff policy instead
// of hammering a briefly-unreachable daemon in lockstep with the rest
// of the fleet.
func (c *Client) Backoff(ctx context.Context, attempt int) error {
	return c.sleepBackoff(ctx, min(attempt, maxAttempts))
}

// JobSpec fetches the spec of the job a lease belongs to, from which
// the worker builds its local evaluation stack.
func (c *Client) JobSpec(ctx context.Context, job string) (jobs.Spec, error) {
	var spec jobs.Spec
	err := c.call(ctx, "spec", job, "/api/v1/fleet/jobs/"+job+"/spec", nil, &spec, rpcTimeout)
	return spec, err
}

// call sends one JSON RPC — a POST of reqBody, or a GET when reqBody
// is nil — with retry/backoff and chaos injection. op and key feed the
// injector (only attempt 0 of a pair is ever faulted, so the retry
// loop always reaches a clean attempt).
func (c *Client) call(ctx context.Context, op, key, path string, reqBody, respBody any, deadline time.Duration) error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := c.sleepBackoff(ctx, attempt); err != nil {
			return err
		}
		err := c.attempt(ctx, op, key, attempt, path, reqBody, respBody, deadline)
		if err == nil || errors.Is(err, ErrGone) || errors.Is(err, errStatus) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("remote: %s gave up after %d attempts: %w", op, maxAttempts, lastErr)
}

// errStatus marks terminal HTTP-status failures (the server answered;
// retrying the same request cannot help).
var errStatus = errors.New("remote: rpc rejected")

func (c *Client) attempt(ctx context.Context, op, key string, attempt int, path string, reqBody, respBody any, deadline time.Duration) error {
	var dec faultinject.NetDecision
	if c.net != nil {
		dec = c.net.Decide(op, key, attempt)
	}
	switch dec.Kind {
	case faultinject.NetReset:
		// Connection reset before the request lands: the server saw
		// nothing; the retry is the first delivery.
		return errInjected{dec.Kind}
	case faultinject.NetDelay:
		select {
		case <-time.After(dec.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	send := func(dst any) error {
		rctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		method, payload := "GET", io.Reader(nil)
		if reqBody != nil {
			data, err := json.Marshal(reqBody)
			if err != nil {
				return err
			}
			method, payload = "POST", bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(rctx, method, c.base+path, payload)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusGone:
			return ErrGone
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%w: %s %s: %s", errStatus, op, resp.Status, bytes.TrimSpace(body))
		}
		return json.Unmarshal(body, dst)
	}
	err := send(respBody)
	switch dec.Kind {
	case faultinject.NetDrop:
		// The server processed the request; the response is dropped on
		// the way back. The retry is a duplicate delivery the daemon's
		// idempotency tokens must absorb.
		if err == nil {
			return errInjected{dec.Kind}
		}
		return err
	case faultinject.NetDup:
		// The request is delivered twice; the second copy's outcome is
		// discarded — the daemon must have discarded it too.
		if err == nil {
			send(&struct{}{})
		}
		return err
	}
	return err
}

// sleepBackoff waits the jittered exponential delay before the given
// attempt (none before the first).
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	if attempt == 0 {
		return nil
	}
	d := retryBase << (attempt - 1)
	if d > retryCap {
		d = retryCap
	}
	c.mu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d))) + d/2 // full-ish jitter in [d/2, 3d/2)
	c.mu.Unlock()
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
