package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// Artifacts are the verifier-independent products of one image: the
// decoded module (and, for a kernel, its own verification, base
// configuration, step budget and sensitivity tolerance), one reference
// run's outputs and profile counts, the dataflow analysis and, once a
// job asks for it, the shadow sensitivity profile. They depend only on
// the image identity — kernel name and class, or the uploaded bytes and
// step budget — so every job over the image can share them; a job's
// tolerance enters only through the Verify closure Target builds.
// Everything an Artifacts hands out is read-only to its consumers.
type Artifacts struct {
	name     string // Spec.Name: the shadow profile's label
	module   *prog.Module
	base     *config.Config
	maxSteps uint64
	verify   func([]vm.OutVal) bool // a kernel's own verification; nil for images
	sensTol  float64                // a kernel's gate tolerance

	baseline *search.Baseline
	ref      []float64        // decoded baseline outputs, the images' verifier reference
	analysis *dataflow.Result // nil when the analysis fails: the search falls back as before

	stats *ArtifactStats // counts the shadow run; nil outside a store

	shMu sync.Mutex
	sh   *shadow.Profile
}

// buildArtifacts is the one construction path from a spec to its
// artifacts: Spec.Build uses it uncached (Spec.SensTol only its decoding
// half, loadArtifacts), the ArtifactStore once per image.
func buildArtifacts(sp Spec) (*Artifacts, error) {
	a, err := loadArtifacts(sp)
	if err != nil {
		return nil, err
	}
	if a.baseline, err = search.RunBaseline(a.module, a.maxSteps); err != nil {
		if sp.Kernel != "" {
			return nil, fmt.Errorf("jobs: reference run of %s failed: %w", a.name, err)
		}
		return nil, fmt.Errorf("jobs: reference run of uploaded image failed: %w", err)
	}
	a.ref = verify.Decode(a.baseline.Out)
	if df, err := dataflow.Analyze(a.module); err == nil {
		a.analysis = df
	}
	return a, nil
}

// loadArtifacts decodes the image: builds the kernel, or parses the
// upload. It does not run it.
func loadArtifacts(sp Spec) (*Artifacts, error) {
	sp = sp.withDefaults()
	a := &Artifacts{name: sp.Name()}
	if sp.Kernel != "" {
		b, err := kernels.Get(sp.Kernel, kernels.Class(sp.Class))
		if err != nil {
			return nil, err
		}
		a.module, a.base, a.maxSteps = b.Module, b.Base, b.MaxSteps
		a.verify, a.sensTol = b.Verify, b.SensTol
		return a, nil
	}
	m, err := prog.Load(sp.Image)
	if err != nil {
		return nil, fmt.Errorf("jobs: image does not parse: %w", err)
	}
	a.module, a.maxSteps = m, sp.MaxSteps
	return a, nil
}

// Target is the search target of one job over the image: the shared
// module, baseline and analysis, plus a verifier built from the stored
// reference outputs and the job's own verifier spec (kernel jobs use the
// kernel's verification). sp must have the image identity the artifacts
// were built from.
func (a *Artifacts) Target(sp Spec) search.Target {
	t := search.Target{
		Module:   a.module,
		Verify:   a.verify,
		MaxSteps: a.maxSteps,
		Base:     a.base,
		Baseline: a.baseline,
	}
	t.InstOpts.Analysis = a.analysis
	if sp.Kernel == "" {
		switch sp.Verifier.Mode {
		case "bitexact":
			t.Verify = verify.BitExact(a.ref)
		default:
			t.Verify = verify.Tolerance(a.ref, sp.Verifier.Tol)
		}
	}
	return t
}

// SensTol is the verifier tolerance the sensitivity gate compares
// against for a job over the image (0 disables gating).
func (a *Artifacts) SensTol(sp Spec) float64 {
	if sp.Kernel != "" {
		return a.sensTol
	}
	if sp.Verifier != nil && sp.Verifier.Mode == "rel" {
		return sp.Verifier.Tol
	}
	return 0
}

// Shadow returns the image's sensitivity profile, collecting it on the
// first call; concurrent callers wait for that one collection. A failed
// collection is not kept, so the next caller tries again.
func (a *Artifacts) Shadow() (*shadow.Profile, error) {
	a.shMu.Lock()
	defer a.shMu.Unlock()
	if a.sh != nil {
		return a.sh, nil
	}
	if a.stats != nil {
		a.stats.Shadows.Add(1)
	}
	sh, err := shadow.Collect(a.name, a.module, a.maxSteps)
	if err != nil {
		return nil, err
	}
	a.sh = sh
	return sh, nil
}

// artifactCap bounds the store. A class-W image's artifacts take
// 0.05–0.25 MB, so a full store stays a few MB however long the daemon
// or worker runs; an evicted image that comes back pays one rebuild.
const artifactCap = 16

// ArtifactStats count the store's builds: each reference run (one per
// image build, failed ones included) and each shadow collection.
type ArtifactStats struct {
	References atomic.Int64
	Shadows    atomic.Int64
}

// ArtifactStore is the bounded in-memory per-image artifact store: the
// daemon keeps one for its jobs, each remote worker one for the leases
// it evaluates. It holds at most artifactCap images, evicting the least
// recently used. It stores no UnitRunners, engines or donor snapshots:
// those belong to one job's verifier and are released with its runner.
// The zero value is an empty store.
type ArtifactStore struct {
	Stats ArtifactStats

	mu      sync.Mutex
	entries []*artifactEntry // most recently used first
}

// artifactEntry is one image's slot; done closes when the build ends.
type artifactEntry struct {
	key  string
	done chan struct{}
	a    *Artifacts
	err  error
}

// artifactKey is the image identity: kernel name and class, or the
// uploaded bytes' digest and the step budget.
func artifactKey(sp Spec) string {
	sp = sp.withDefaults()
	if sp.Kernel != "" {
		return "kernel:" + sp.Kernel + "." + sp.Class
	}
	sum := sha256.Sum256(sp.Image)
	return fmt.Sprintf("image:%s|maxsteps=%d", hex.EncodeToString(sum[:]), sp.MaxSteps)
}

// Get returns the spec's image artifacts, building them on a miss.
// Concurrent requests for one image share a single build; a failed
// build returns its error to everyone waiting on it and is not kept.
func (s *ArtifactStore) Get(sp Spec) (*Artifacts, error) {
	key := artifactKey(sp)
	s.mu.Lock()
	if e := s.touchLocked(key); e != nil {
		s.mu.Unlock()
		<-e.done
		return e.a, e.err
	}
	e := &artifactEntry{key: key, done: make(chan struct{})}
	s.entries = append([]*artifactEntry{e}, s.entries...)
	if len(s.entries) > artifactCap {
		clear(s.entries[artifactCap:])
		s.entries = s.entries[:artifactCap]
	}
	s.mu.Unlock()

	s.Stats.References.Add(1)
	e.a, e.err = buildArtifacts(sp)
	if e.err != nil {
		s.mu.Lock()
		if i := slices.Index(s.entries, e); i >= 0 {
			s.entries = slices.Delete(s.entries, i, i+1)
		}
		s.mu.Unlock()
	} else {
		e.a.stats = &s.Stats
	}
	close(e.done)
	return e.a, e.err
}

// touchLocked returns the key's entry, marking it most recently used,
// or nil; callers hold s.mu.
func (s *ArtifactStore) touchLocked(key string) *artifactEntry {
	for i, e := range s.entries {
		if e.key == key {
			copy(s.entries[1:i+1], s.entries[:i])
			s.entries[0] = e
			return e
		}
	}
	return nil
}
