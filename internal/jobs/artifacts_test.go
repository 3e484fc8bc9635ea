package jobs

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fpmix/internal/hl"
	"fpmix/internal/prog"
	"fpmix/internal/vm"
)

// tinyImage serializes a short straight-line program with one output,
// for store tests that need many cheap builds.
func tinyImage(t *testing.T) []byte {
	t.Helper()
	p := hl.New("tiny", hl.ModeF64)
	x := p.Scalar("x")
	main := p.Func("main")
	main.Set(x, hl.Add(hl.Const(1.5), hl.Const(2.25)))
	main.Out(hl.Load(x))
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Save(m)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func relSpec(img []byte, tol float64) Spec {
	return Spec{Image: img, Verifier: &VerifierSpec{Mode: "rel", Tol: tol}}
}

// TestArtifactsConcurrentBuildOnce: concurrent jobs over one image share
// a single build — one reference run — and a single shadow collection.
func TestArtifactsConcurrentBuildOnce(t *testing.T) {
	s := &ArtifactStore{}
	spec := relSpec(testImage(t), 1e-6)
	const n = 8
	got := make([]*Artifacts, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := s.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := a.Shadow(); err != nil {
				t.Error(err)
				return
			}
			got[i] = a
		}(i)
	}
	wg.Wait()
	for _, a := range got[1:] {
		if a != got[0] {
			t.Fatal("concurrent requests for one image got different artifacts")
		}
	}
	if r, sh := s.Stats.References.Load(), s.Stats.Shadows.Load(); r != 1 || sh != 1 {
		t.Fatalf("%d concurrent jobs over one image: %d reference runs, %d shadow runs; want 1 and 1", n, r, sh)
	}
}

// TestArtifactKey: the image bytes and the step budget identify an
// image; the verifier does not.
func TestArtifactKey(t *testing.T) {
	img, other := tinyImage(t), testImage(t)
	s := &ArtifactStore{}
	get := func(sp Spec) *Artifacts {
		t.Helper()
		a, err := s.Get(sp)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := get(relSpec(img, 1e-6))
	if get(Spec{Image: img, Verifier: &VerifierSpec{Mode: "bitexact"}}) != base {
		t.Error("a different verifier rebuilt the image")
	}
	budget := relSpec(img, 1e-6)
	budget.MaxSteps = 1 << 20
	if get(budget) == base {
		t.Error("a different step budget shared the artifacts")
	}
	if get(relSpec(other, 1e-6)) == base {
		t.Error("different image bytes shared the artifacts")
	}
	if get(Spec{Kernel: "ep"}) != get(Spec{Kernel: "ep", Class: "W"}) {
		t.Error("the default class is a different kernel image")
	}
	if n := s.Stats.References.Load(); n != 4 {
		t.Errorf("%d reference runs, want 4 (image, budget, other image, kernel)", n)
	}
}

// TestArtifactsShareAcrossTolerances: two jobs over one uploaded image
// at different rel tolerances share module and baseline, while each
// gets its own verifier from the shared reference outputs.
func TestArtifactsShareAcrossTolerances(t *testing.T) {
	s := &ArtifactStore{}
	img := testImage(t)
	tight, loose := relSpec(img, 1e-12), relSpec(img, 1e-3)
	at, err := s.Get(tight)
	if err != nil {
		t.Fatal(err)
	}
	al, err := s.Get(loose)
	if err != nil {
		t.Fatal(err)
	}
	tt, tl := at.Target(tight), al.Target(loose)
	if tt.Module != tl.Module || tt.Baseline != tl.Baseline {
		t.Fatal("tolerances of one image do not share module and baseline")
	}
	if reflect.ValueOf(tt.Baseline.Counts).UnsafePointer() != reflect.ValueOf(tl.Baseline.Counts).UnsafePointer() {
		t.Fatal("tolerances of one image do not share profile counts")
	}
	if at.SensTol(tight) != 1e-12 || al.SensTol(loose) != 1e-3 {
		t.Fatal("gate tolerance not taken from the job's verifier")
	}
	// One output off by 1e-6 relative: inside the loose tolerance,
	// outside the tight one.
	out := append([]vm.OutVal(nil), tt.Baseline.Out...)
	v := math.Float64frombits(out[0].Bits)
	out[0].Bits = math.Float64bits(v + 1e-6*math.Max(1, math.Abs(v)))
	if !tt.Verify(tt.Baseline.Out) || !tl.Verify(tl.Baseline.Out) {
		t.Fatal("a verifier rejects the reference outputs")
	}
	if tt.Verify(out) || !tl.Verify(out) {
		t.Fatalf("verifiers for tol 1e-12 and 1e-3 returned %t and %t on a 1e-6 error, want false and true",
			tt.Verify(out), tl.Verify(out))
	}
}

// TestArtifactsFailedBuildNotCached: a reference run that fails returns
// its error and leaves nothing behind, so the next request rebuilds.
func TestArtifactsFailedBuildNotCached(t *testing.T) {
	s := &ArtifactStore{}
	spec := relSpec(testImage(t), 1e-6)
	spec.MaxSteps = 10
	for i := 1; i <= 2; i++ {
		_, err := s.Get(spec)
		if err == nil || !strings.Contains(err.Error(), "reference run of uploaded image failed") {
			t.Fatalf("request %d: got error %v, want the reference-run failure", i, err)
		}
		if len(s.entries) != 0 {
			t.Fatalf("request %d: failed build kept in the store", i)
		}
		if n := s.Stats.References.Load(); n != int64(i) {
			t.Fatalf("request %d: %d reference runs; a failure must not be served from the store", i, n)
		}
	}
}

// TestArtifactStoreEvictsLRU: one image past the cap evicts the least
// recently used one.
func TestArtifactStoreEvictsLRU(t *testing.T) {
	s := &ArtifactStore{}
	img := tinyImage(t)
	spec := func(i int) Spec {
		sp := relSpec(img, 1e-6)
		sp.MaxSteps = uint64(1000 + i)
		return sp
	}
	get := func(i int) {
		t.Helper()
		if _, err := s.Get(spec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < artifactCap; i++ {
		get(i)
	}
	get(0) // image 1 is now the least recently used
	get(artifactCap)
	if len(s.entries) != artifactCap {
		t.Fatalf("store holds %d images, want the cap %d", len(s.entries), artifactCap)
	}
	refs := s.Stats.References.Load()
	get(0)
	if n := s.Stats.References.Load(); n != refs {
		t.Fatal("a recently used image was evicted")
	}
	get(1)
	if n := s.Stats.References.Load(); n != refs+1 {
		t.Fatal("the least recently used image was not the one evicted")
	}
}
