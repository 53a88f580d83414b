package cache

import (
	"testing"

	"ccnuma/internal/mem"
)

// TestValidityPerHomeRehome pins the sharded filter's core contract: stamps
// live with the page's home node and move verbatim when the kernel rehomes
// the page, so no cache entry's validity verdict ever depends on which
// shard holds the stamps.
func TestValidityPerHomeRehome(t *testing.T) {
	v := NewValidity(8, 4)
	p := mem.GPage(3)
	l := p.Line(5)

	if v.Home(p) != -1 {
		t.Fatalf("never-resident page homed on node %d", v.Home(p))
	}
	if v.LineVersion(l) != 0 || v.PageEpoch(p) != 0 {
		t.Fatal("never-resident page has non-zero stamps")
	}

	v.Assign(p, 1)
	if v.Home(p) != 1 {
		t.Fatalf("home = %d after Assign(1)", v.Home(p))
	}
	v.BumpLine(l)
	v.BumpLine(l)
	v.BumpPage(p)
	if got := v.LineVersion(l); got != 2 {
		t.Fatalf("line version = %d, want 2", got)
	}

	// Migration to node 2: every stamp must survive the move verbatim.
	v.Assign(p, 2)
	if v.Home(p) != 2 {
		t.Fatalf("home = %d after Assign(2)", v.Home(p))
	}
	if got := v.LineVersion(l); got != 2 {
		t.Fatalf("line version lost in rehome: %d, want 2", got)
	}
	if got := v.PageEpoch(p); got != 1 {
		t.Fatalf("page epoch lost in rehome: %d, want 1", got)
	}

	// The vacated slot on node 1 must hand fresh zeros to its next tenant.
	q := mem.GPage(6)
	v.Assign(q, 1)
	if got := v.LineVersion(q.Line(5)); got != 0 {
		t.Fatalf("recycled slot leaked stamps: line version %d", got)
	}
	if got := v.PageEpoch(q); got != 0 {
		t.Fatalf("recycled slot leaked stamps: epoch %d", got)
	}

	// Re-assigning the current home is a no-op, not a slot churn.
	v.Assign(p, 2)
	if got := v.LineVersion(l); got != 2 {
		t.Fatalf("same-home Assign disturbed stamps: %d", got)
	}
}

// TestValidityParkingPreservesStamps pins the release semantics: a released
// page's stamps park on its last home, so a cached entry surviving the
// release can never re-validate against reset stamps when the page comes
// back on a different node.
func TestValidityParkingPreservesStamps(t *testing.T) {
	v := NewValidity(8, 4)
	p := mem.GPage(2)
	l := p.Line(0)
	v.Assign(p, 3)
	version := v.BumpLine(l)
	epochAtCache := v.PageEpoch(p) // a cache entry stamps {version, epochAtCache}

	v.BumpPage(p) // ReleasePage's machine-wide invalidation
	if v.Home(p) != 3 {
		t.Fatalf("release unhomed the page (home %d)", v.Home(p))
	}

	// Next residence lands on node 0; the parked stamps follow.
	v.Assign(p, 0)
	if v.PageEpoch(p) == epochAtCache {
		t.Fatal("stale cache entry would re-validate: epoch reset across release")
	}
	if got := v.LineVersion(l); got != version {
		t.Fatalf("line version reset across release: %d, want %d", got, version)
	}
}

// TestValidityUnhomedBumps pins the boundary behaviour: releasing a
// never-resident page has nothing to invalidate (no-op), while writing a
// line of one is a kernel bug and panics.
func TestValidityUnhomedBumps(t *testing.T) {
	v := NewValidity(4, 2)
	v.BumpPage(1) // must not panic
	if v.Home(1) != -1 {
		t.Fatal("BumpPage homed a never-resident page")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BumpLine on an unhomed page did not panic")
		}
	}()
	v.BumpLine(mem.GPage(1).Line(0))
}

// TestValiditySingleNodeCompat pins the degenerate machine-wide filter: one
// node pre-homes every page, so the legacy construct-and-bump pattern works
// without any Assign.
func TestValiditySingleNodeCompat(t *testing.T) {
	v := NewValidity(4, 1)
	l := mem.GPage(2).Line(7)
	if got := v.BumpLine(l); got != 1 {
		t.Fatalf("first bump = %d, want 1", got)
	}
	v.BumpPage(2)
	if v.PageEpoch(2) != 1 || v.Home(2) != 0 {
		t.Fatalf("single-node filter misbehaves: epoch %d home %d", v.PageEpoch(2), v.Home(2))
	}
}
