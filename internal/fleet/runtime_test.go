package fleet

import (
	"testing"

	"fpmix/internal/search"
)

// TestStaleLeaseGuard: a claim re-delivers held leases after a lost
// response, and a claim response composed while a report was in flight
// can re-deliver a lease the pool has since retired. The runtime must
// refuse both the duplicate and the already-reported epoch — but still
// accept a genuine reassignment, which arrives with a higher epoch.
func TestStaleLeaseGuard(t *testing.T) {
	s := newSession(Runtime{}, nil)
	l := Lease{Job: "j0001", Epoch: 3, Unit: search.EvalUnit{Key: "ab"}}
	if !s.addHeld(l) {
		t.Fatal("fresh lease refused")
	}
	if s.addHeld(l) {
		t.Fatal("already-held lease accepted twice")
	}
	s.dropHeld([]Report{{Job: "j0001", Key: "ab", Epoch: 3}})
	if n := s.heldCount(); n != 0 {
		t.Fatalf("heldCount = %d after dropHeld, want 0", n)
	}
	if s.addHeld(l) {
		t.Fatal("stale re-delivery of a reported epoch accepted")
	}
	l.Epoch = 4
	if !s.addHeld(l) {
		t.Fatal("re-leased unit at a higher epoch refused")
	}
}
