package main

import (
	"runtime"
	"time"

	"fpmix/internal/fleet"
)

// sut is the system under test for one pass of a workload.
type sut interface {
	do(req request, tr *tracer) outcome
	stop()
}

// workload is one benchmark workload: its request stream, its callers
// and the system they drive.
type workload struct {
	name string
	// callers is the number of closed-loop callers.
	callers int
	// image selects the image stream (else the kernel stream).
	image bool
	// start sets the system up over a fresh store dir.
	start func(dir string, tr *tracer) (sut, error)
	// daemon marks the HTTP workloads, whose finals are compared to an
	// in-process reference search.
	daemon bool
	// minRequests is the fewest requests a timed window runs: at least
	// minSamples(0.9), so that job_p90_s has ten samples beyond it, in
	// whole rounds.
	minRequests int
}

var workloads = map[string]*workload{
	// The library / fpsearch path: unit evaluation dominates, and the
	// job store, fleet, wire and daemon are bypassed.
	"search-inproc": {
		name: "search-inproc", callers: 1, image: true, minRequests: 105,
		start: func(string, *tracer) (sut, error) { return inproc{}, nil },
	},
	// The same requests over the remote fleet protocol: every unit is
	// leased, shipped as JSON, evaluated by a remote.Run worker and
	// reported back; every verdict is a cold cache and journal write.
	"fleet-remote": {
		name: "fleet-remote", callers: 1, image: true, daemon: true, minRequests: 105,
		start: func(dir string, tr *tracer) (sut, error) {
			return startDaemon(dir, 0, runtime.NumCPU(), tr)
		},
	},
	// Repeated kernel jobs from nproc callers: after each kernel's first
	// job the shared verdict cache serves most units, so per-job
	// fixed costs dominate. Its minimum of 15 rounds outlasts a 10 s
	// window, so every run sends the same rounds: a time-bound window
	// would give a faster run more warm-cache rounds and exaggerate the
	// difference.
	"service-repeat": {
		name: "service-repeat", callers: runtime.NumCPU(), daemon: true, minRequests: 315,
		start: func(dir string, tr *tracer) (sut, error) {
			return startDaemon(dir, runtime.NumCPU(), 0, tr)
		},
	},
}

// newStream deals the workload's requests from a seed.
func (wl *workload) newStream(seed int64, ks *kernelSet) *stream {
	if wl.image {
		return imageStream(seed, ks)
	}
	return kernelStream(seed, ks)
}

// streamName names the workload's request stream.
func (wl *workload) streamName() string {
	if wl.image {
		return "image"
	}
	return "kernel"
}

// inproc runs requests through search.Run in the benchmark's process.
type inproc struct{}

func (inproc) do(req request, tr *tracer) outcome { return inprocOutcome(req, tr) }
func (inproc) stop()                              {}

// score re-verifies a window's outcomes; daemon finals are also compared
// with the in-process reference search of the same spec.
func (wl *workload) score(ks *kernelSet, orc *oracle, outs []outcome) []verdict {
	if !wl.daemon {
		return scoreAll(ks, orc, outs, nil)
	}
	return scoreAll(ks, orc, outs, references(outs).get)
}

// poolStats is what a daemon pass leaves in its worker registry and
// store, read before the daemon stops.
type poolStats struct {
	workers    []fleet.WorkerInfo
	fallbacks  int
	storeBytes int64
	queueMean  float64
}

// sampleQueue samples the fleet's queue length every interval until
// stopped, returning the mean.
type queueSampler struct {
	stopc chan struct{}
	done  chan float64
}

func sampleQueue(d *daemon, interval time.Duration) *queueSampler {
	q := &queueSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sum, n := 0, 0
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-q.stopc:
				mean := 0.0
				if n > 0 {
					mean = float64(sum) / float64(n)
				}
				q.done <- mean
				return
			case <-t.C:
				sum += d.srv.Pool().QueueLen()
				n++
			}
		}
	}()
	return q
}

func (q *queueSampler) stop() float64 {
	close(q.stopc)
	return <-q.done
}

// statsOf reads the daemon's registry and store.
func statsOf(d *daemon) *poolStats {
	return &poolStats{
		workers:    d.srv.Pool().Workers(),
		fallbacks:  d.srv.Pool().Fallbacks(),
		storeBytes: d.storeBytes(),
	}
}
