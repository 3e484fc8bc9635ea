package main

import (
	"fmt"
	"math"
	"math/rand"

	"fpmix/internal/jobs"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
)

// searchKernels are the seven NAS class-W modules every request stream
// draws from.
var searchKernels = []string{"bt", "cg", "ep", "ft", "lu", "mg", "sp"}

// granularities are the search levels service-repeat draws.
var granularities = []string{"insn", "block", "func"}

// Tolerance range of the rel verifier, drawn log-uniformly: the paper's
// threshold-sweep axis.
const (
	minTolExp = -9
	maxTolExp = -3
)

// kernelSet is the built benchmark modules: the benchmark's set-up work.
type kernelSet struct {
	bench map[string]*kernels.Bench
	image map[string][]byte
}

func buildKernels() (*kernelSet, error) {
	ks := &kernelSet{bench: map[string]*kernels.Bench{}, image: map[string][]byte{}}
	for _, name := range searchKernels {
		b, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			return nil, err
		}
		img, err := prog.Save(b.Module)
		if err != nil {
			return nil, fmt.Errorf("%s.W: saving image: %w", name, err)
		}
		ks.bench[name], ks.image[name] = b, img
	}
	return ks, nil
}

// request is one generated search request. The program sees only Spec;
// the rest is the benchmark's own bookkeeping.
type request struct {
	Index  int
	Kernel string
	Tol    float64 // rel verifier tolerance (image requests), else 0
	Gran   string
	Spec   jobs.Spec
}

// label names the request in reports: "lu.W rel=3.2e-07" or "lu.W/block".
func (r request) label() string {
	if r.Tol > 0 {
		return fmt.Sprintf("%s.W rel=%.3g", r.Kernel, r.Tol)
	}
	return fmt.Sprintf("%s.W/%s", r.Kernel, r.Gran)
}

// key identifies the request's spec: equal keys search the same thing.
func (r request) key() string { return fmt.Sprintf("%s/%s/%v", r.Kernel, r.Gran, r.Tol) }

// stream deals requests deterministically from a seed. Requests come in
// rounds that visit every kernel (or every kernel × granularity) once in
// a seeded order, and each kernel's tolerances follow a low-discrepancy
// sequence, so any prefix of the stream holds a near-even mix and the
// per-run figures do not hinge on which kernels and tolerances a seed
// happened to draw. Not safe for concurrent use: runWindow serializes
// callers, and the sequence does not depend on who takes which request.
type stream struct {
	rng   *rand.Rand
	ks    *kernelSet
	image bool // uploaded-image requests with rel verifiers (else kernel jobs)
	// tolPhase is each kernel's seeded offset into its tolerance sequence.
	tolPhase []float64
	rounds   int
	round    []request
	next     int
}

// imageStream is the search-inproc / fleet-remote stream: uploaded
// class-W images, each with a fresh rel tolerance.
func imageStream(seed int64, ks *kernelSet) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), ks: ks, image: true}
	for range searchKernels {
		s.tolPhase = append(s.tolPhase, s.rng.Float64())
	}
	return s
}

// goldenFrac is the additive step of the Kronecker sequence frac(u + r·g):
// with g the golden-ratio fraction, any run of consecutive rounds covers
// the tolerance range near-evenly, while each tolerance on its own is
// log-uniform because the phase u is.
var goldenFrac = (math.Sqrt(5) - 1) / 2

// kernelStream is the service-repeat stream: kernel jobs over kernel ×
// granularity, repeating every combination once per round.
func kernelStream(seed int64, ks *kernelSet) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), ks: ks}
}

// roundSize is the number of requests in one round.
func (s *stream) roundSize() int {
	if s.image {
		return len(searchKernels)
	}
	return len(searchKernels) * len(granularities)
}

// take returns the next request.
func (s *stream) take() request {
	if len(s.round) == 0 {
		s.deal()
	}
	r := s.round[0]
	s.round = s.round[1:]
	r.Index = s.next
	s.next++
	return r
}

// deal shuffles the next round.
func (s *stream) deal() {
	defer func() { s.rounds++ }()
	if s.image {
		for _, i := range s.rng.Perm(len(searchKernels)) {
			name := searchKernels[i]
			_, u := math.Modf(s.tolPhase[i] + float64(s.rounds)*goldenFrac)
			tol := math.Pow(10, minTolExp+(maxTolExp-minTolExp)*u)
			s.round = append(s.round, request{
				Kernel: name, Tol: tol, Gran: "insn",
				Spec: jobs.Spec{
					Image:    s.ks.image[name],
					Verifier: &jobs.VerifierSpec{Mode: "rel", Tol: tol},
					MaxSteps: s.ks.bench[name].MaxSteps,
				},
			})
		}
		return
	}
	n := len(searchKernels) * len(granularities)
	for _, i := range s.rng.Perm(n) {
		name, gran := searchKernels[i/len(granularities)], granularities[i%len(granularities)]
		s.round = append(s.round, request{
			Kernel: name, Gran: gran,
			Spec: jobs.Spec{Kernel: name, Class: string(kernels.ClassW), Granularity: gran},
		})
	}
}
