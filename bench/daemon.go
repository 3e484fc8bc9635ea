package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/remote"
	"fpmix/internal/service"
)

// daemon is an fpmixd service behind a loopback HTTP server, optionally
// fed by in-process remote.Run workers speaking the fleet protocol.
type daemon struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	stopW  context.CancelFunc
	wg     sync.WaitGroup
}

// startDaemon opens a service over a fresh store dir. remoteWorkers > 0
// makes it remote-only (Workers: -1) with that many remote.Run workers
// of Parallel 1; otherwise it evaluates on inWorkers in-process workers.
// With a tracer, the fleet protocol's RPCs are recorded as spans.
func startDaemon(dir string, inWorkers, remoteWorkers int, tr *tracer) (*daemon, error) {
	opts := service.Options{Dir: dir, Workers: inWorkers, DrainTimeout: time.Second}
	if remoteWorkers > 0 {
		opts.Workers = -1
	}
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = &wireTap{next: h, tr: tr}
	}
	d := &daemon{dir: dir, srv: srv, ts: httptest.NewServer(h), client: &http.Client{}}
	wctx, cancel := context.WithCancel(context.Background())
	d.stopW = cancel
	for i := 0; i < remoteWorkers; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			remote.Run(wctx, remote.WorkerOptions{Server: d.ts.URL, Name: fmt.Sprintf("bench%d", i), Parallel: 1})
		}(i)
	}
	if err := d.awaitRemote(remoteWorkers); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// awaitRemote blocks until n live remote workers have registered.
func (d *daemon) awaitRemote(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range d.srv.Pool().Workers() {
			if w.Remote && w.State != fleet.WorkerDead {
				live++
			}
		}
		if live >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("never saw %d live remote workers", n)
}

// stop ends the workers, then the HTTP server, then the service.
func (d *daemon) stop() {
	d.stopW()
	d.wg.Wait()
	d.ts.Close()
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fpmixbench: closing the service: %v\n", err)
	}
}

// storeBytes is the size of everything under the store dir; entries
// that vanish or cannot be read while it walks are skipped.
func (d *daemon) storeBytes() int64 {
	var n int64
	filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if fi, ierr := e.Info(); ierr == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// do runs one request the way `fpmixctl submit` + `wait` + `result` do:
// submit the spec, follow the event stream to its end marker (resuming
// after a dropped stream), read the job status with its summary, fetch
// the final configuration. Traced, it records the submit, wait for the
// first verdict, evaluation and result phases as spans.
func (d *daemon) do(req request, tr *tracer) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	o := outcome{req: req, start: time.Now()}
	root := tr.begin("request", -1, req.Index)
	defer tr.end(root, 0, 0)
	fail := func(err error) outcome {
		o.err = err
		o.wall = time.Since(o.start)
		return o
	}

	sp := tr.begin("service.submit", root, req.Index)
	var job jobs.Job
	_, err := d.call(ctx, "POST", "/api/v1/jobs", req.Spec, &job)
	tr.end(sp, 0, 0)
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}

	phase := tr.begin("service.first_verdict", root, req.Index)
	seenEval := false
	last := 0
	var st service.JobStatus
	for {
		err := d.follow(ctx, job.ID, last+1, func(e service.Event) {
			if e.Seq > last {
				last = e.Seq
			}
			if e.Type == "eval" && !seenEval {
				seenEval = true
				tr.end(phase, 0, 0)
				phase = tr.begin("service.evaluation", root, req.Index)
			}
		})
		if err != nil {
			tr.end(phase, 0, 0)
			return fail(fmt.Errorf("events: %w", err))
		}
		if _, err := d.call(ctx, "GET", "/api/v1/jobs/"+job.ID, nil, &st); err != nil {
			tr.end(phase, 0, 0)
			return fail(fmt.Errorf("status: %w", err))
		}
		if st.Job.State.Terminal() {
			break
		}
		// The stream ended early (a slow subscriber is dropped): resume.
	}
	tr.end(phase, 0, 0)

	if st.Job.State != jobs.StateDone {
		return fail(fmt.Errorf("job %s ended %s: %s", job.ID, st.Job.State, st.Job.Error))
	}
	if st.Summary == nil {
		return fail(fmt.Errorf("job %s is done without a summary", job.ID))
	}
	sp = tr.begin("service.result", root, req.Index)
	final, err := d.call(ctx, "GET", "/api/v1/jobs/"+job.ID+"/result", nil, nil)
	tr.end(sp, 0, 0)
	if err != nil {
		return fail(fmt.Errorf("result: %w", err))
	}
	o.final, o.sum, o.wall = string(final), st.Summary, time.Since(o.start)
	return o
}

// follow reads the job's ndjson event stream from sequence number from
// until its end marker.
func (d *daemon) follow(ctx context.Context, id string, from int, on func(service.Event)) error {
	r, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/api/v1/jobs/%s/events?from=%d", d.ts.URL, id, from), nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("decoding event: %w", err)
		}
		if e.Type == "end" {
			return nil
		}
		on(e)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream closed without an end marker")
}

// call sends a request with an optional JSON body and decodes the JSON
// reply into out, or returns the raw reply when out is nil.
func (d *daemon) call(ctx context.Context, method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	r, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return data, json.Unmarshal(data, out)
	}
	return data, nil
}

// wireTap records every fleet-protocol RPC as a span carrying its payload
// bytes and, for claims and reports, how many units it moved. Client
// API calls pass through untouched: the caller times those itself.
type wireTap struct {
	next http.Handler
	tr   *tracer
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := fleetRoute(r.URL.Path)
	if name == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	sp := t.tr.begin(name, -1, -1)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.tr.end(sp, 0, 0)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &captureWriter{ResponseWriter: w}
	t.next.ServeHTTP(cw, r)
	n := 0
	switch name {
	case "remote.claim":
		var resp remote.ClaimResponse
		if json.Unmarshal(cw.buf.Bytes(), &resp) == nil {
			n = len(resp.Leases)
		}
	case "remote.report":
		var req remote.ReportRequest
		if json.Unmarshal(body, &req) == nil {
			n = len(req.Reports)
		}
	}
	t.tr.end(sp, int64(len(body)+cw.buf.Len()), n)
}

// fleetRoute names a fleet-protocol path's span ("" for other paths).
func fleetRoute(path string) string {
	const p = "/api/v1/fleet/"
	if !strings.HasPrefix(path, p) {
		return ""
	}
	rest := strings.TrimPrefix(path, p)
	if strings.HasPrefix(rest, "jobs/") {
		return "remote.spec"
	}
	return "remote." + rest
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}
