package service

import (
	"bytes"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/jobs"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// imageSerialFinal searches an uploaded image at a rel tolerance the
// way a fresh library caller would — its own load, reference run,
// shadow collection and search.Run, no artifact store — with the
// options a service job uses.
func imageSerialFinal(t *testing.T, img []byte, tol float64) string {
	t.Helper()
	m, err := prog.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := vm.New(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	tgt := search.Target{Module: m, Verify: verify.Tolerance(verify.Decode(mach.Out), tol)}
	spec := jobs.Spec{Image: img, Verifier: &jobs.VerifierSpec{Mode: "rel", Tol: tol}}
	sh, err := shadow.Collect(spec.Name(), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(tgt, search.Options{
		Workers: 4, Granularity: config.KindInsn,
		BinarySplit: true, Prioritize: true, Engine: search.EngineFork,
		Shadow: sh, SensThreshold: tol,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Final.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServiceArtifactsOncePerImage: jobs over a kernel submitted twice
// and over one uploaded image at two tolerances compose finals
// byte-identical to fresh in-process searches, while the daemon's
// artifact store reference-runs and shadow-profiles each image once.
func TestServiceArtifactsOncePerImage(t *testing.T) {
	b, err := kernels.Get("mg", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Save(b.Module)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tols := []float64{1e-10, 1e-4}
	specs := []jobs.Spec{{Kernel: "ep"}, {Kernel: "ep"}}
	for _, tol := range tols {
		specs = append(specs, jobs.Spec{Image: img, Verifier: &jobs.VerifierSpec{Mode: "rel", Tol: tol}})
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		j, err := srv.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	finals := make([]string, len(ids))
	for i, id := range ids {
		waitState(t, srv, id, jobs.StateDone)
		finals[i] = stripNotes(resultOf(t, srv, id))
	}
	want := []string{
		stripNotes(serialFinal(t, "ep")),
		stripNotes(serialFinal(t, "ep")),
		stripNotes(imageSerialFinal(t, img, tols[0])),
		stripNotes(imageSerialFinal(t, img, tols[1])),
	}
	for i := range finals {
		if finals[i] != want[i] {
			t.Errorf("job %s (%s) composed a final that differs from a fresh in-process search", ids[i], specs[i].Name())
		}
	}
	if want[2] == want[3] {
		t.Error("the two tolerances compose the same final; the test cannot tell their verifiers apart")
	}
	st := &srv.Store().Artifacts().Stats
	if r, sh := st.References.Load(), st.Shadows.Load(); r != 2 || sh != 2 {
		t.Errorf("two images: %d reference runs and %d shadow runs, want 2 and 2", r, sh)
	}
}
