package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCertifyCommitAssignsDenseVersions(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 10; i++ {
		v, d := e.Certify(e.SystemVersion(), wsOf(string(rune('a'+i))), 0)
		if d != Commit {
			t.Fatalf("tx %d: decision %v, want commit", i, d)
		}
		if v != Version(i) {
			t.Fatalf("tx %d: version %d, want %d", i, v, i)
		}
	}
	if e.SystemVersion() != 10 {
		t.Errorf("system version %d, want 10", e.SystemVersion())
	}
}

func TestCertifyDetectsConflict(t *testing.T) {
	e := NewEngine()
	// T1 commits x at version 1.
	if _, d := e.Certify(0, wsOf("x"), 0); d != Commit {
		t.Fatal("first writer should commit")
	}
	// T2 also started at version 0 and writes x: concurrent conflict.
	if _, d := e.Certify(0, wsOf("x", "y"), 0); d != Abort {
		t.Error("concurrent write-write conflict must abort")
	}
	// T3 starts at version 1 (after T1 committed): no conflict.
	if _, d := e.Certify(1, wsOf("x"), 0); d != Commit {
		t.Error("serial re-write of x must commit")
	}
}

func TestCertifyDisjointConcurrentCommit(t *testing.T) {
	e := NewEngine()
	if _, d := e.Certify(0, wsOf("a"), 0); d != Commit {
		t.Fatal("a")
	}
	if _, d := e.Certify(0, wsOf("b"), 0); d != Commit {
		t.Fatal("disjoint concurrent writesets must both commit")
	}
}

func TestCertifyEmptyWritesetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Certify with empty writeset should panic")
		}
	}()
	NewEngine().Certify(0, &Writeset{}, 0)
}

func TestEntriesSince(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"a", "b", "c", "d"} {
		e.Certify(e.SystemVersion(), wsOf(k), 0)
	}
	got, err := e.EntriesSince(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Version != 2 || got[1].Version != 3 {
		t.Errorf("EntriesSince(1,3) = %v", got)
	}
	// upTo beyond system clamps.
	got, err = e.EntriesSince(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Version != 4 {
		t.Errorf("clamped EntriesSince = %v", got)
	}
	if got, _ := e.EntriesSince(4, 4); got != nil {
		t.Errorf("empty range should be nil, got %v", got)
	}
}

func TestTruncate(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"a", "b", "a", "c"} {
		e.Certify(e.SystemVersion(), wsOf(k), 0)
	}
	if err := e.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if e.TruncatedBelow() != 2 || e.Len() != 2 {
		t.Fatalf("after truncate: horizon %d len %d", e.TruncatedBelow(), e.Len())
	}
	if _, err := e.EntriesSince(1, 4); !errors.Is(err, ErrTruncated) {
		t.Errorf("EntriesSince below horizon: err=%v, want ErrTruncated", err)
	}
	if _, err := e.Entry(2); !errors.Is(err, ErrTruncated) {
		t.Errorf("Entry(2): err=%v, want ErrTruncated", err)
	}
	if ent, err := e.Entry(3); err != nil || ent.Version != 3 {
		t.Errorf("Entry(3) = %v, %v", ent, err)
	}
	// Conflict detection must still work across the horizon: "a" was
	// last written at version 3 which is retained.
	if _, d := e.Certify(2, wsOf("a"), 0); d != Abort {
		t.Error("conflict with retained post-truncation writer must abort")
	}
	if err := e.Truncate(99); err == nil {
		t.Error("truncate beyond system version should error")
	}
	if err := e.Truncate(1); err != nil {
		t.Errorf("idempotent truncate below horizon: %v", err)
	}
}

func TestRestoreRebuildsEngine(t *testing.T) {
	e := NewEngine()
	e.Certify(0, wsOf("a"), 0)
	e.Certify(1, wsOf("b"), 0)
	e.Certify(2, wsOf("a"), 0)
	trunc, entries := e.Snapshot()

	r := NewEngine()
	if err := r.Restore(trunc, entries); err != nil {
		t.Fatal(err)
	}
	if r.SystemVersion() != e.SystemVersion() {
		t.Errorf("restored system version %d, want %d", r.SystemVersion(), e.SystemVersion())
	}
	// Conflict behaviour must be identical after restore.
	if _, d := r.Certify(2, wsOf("a"), 0); d != Abort {
		t.Error("restored engine lost conflict state")
	}
	if _, d := r.Certify(3, wsOf("c"), 0); d != Commit {
		t.Error("restored engine rejects clean writeset")
	}

	bad := []LogEntry{{Version: 5, WS: wsOf("q")}}
	if err := NewEngine().Restore(0, bad); err == nil {
		t.Error("restore with non-dense versions should error")
	}
}

func TestRestoreAfterTruncate(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		e.Certify(e.SystemVersion(), wsOf(k), 0)
	}
	if err := e.Truncate(3); err != nil {
		t.Fatal(err)
	}
	trunc, entries := e.Snapshot()
	if trunc != 3 || len(entries) != 2 {
		t.Fatalf("snapshot trunc=%d len=%d", trunc, len(entries))
	}
	r := NewEngine()
	if err := r.Restore(trunc, entries); err != nil {
		t.Fatal(err)
	}
	if r.SystemVersion() != 5 {
		t.Errorf("system version %d, want 5", r.SystemVersion())
	}
}

// TestQuickGSISafety is the core safety property: for any interleaving,
// a committed writeset never intersects another writeset committed
// between its start version and its commit version.
func TestQuickGSISafety(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type committed struct {
			start, commit Version
			ws            *Writeset
		}
		var history []committed
		keys := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 60; i++ {
			// Random start version at or before current system version.
			start := Version(r.Intn(int(e.SystemVersion()) + 1))
			ws := &Writeset{}
			for _, k := range keys {
				if r.Intn(4) == 0 {
					ws.Add(WriteOp{Kind: OpUpdate, Table: "t", Key: k})
				}
			}
			if ws.Empty() {
				continue
			}
			v, d := e.Certify(start, ws, 0)
			if d == Commit {
				history = append(history, committed{start, v, ws})
			}
		}
		// Check pairwise: no committed tx intersects a tx committed in
		// its (start, commit) window.
		for i := range history {
			for j := range history {
				if i == j {
					continue
				}
				a, b := history[i], history[j]
				if b.commit > a.start && b.commit < a.commit && a.ws.Intersects(b.ws) {
					return false
				}
			}
		}
		// Versions dense and unique.
		for i := range history {
			if i > 0 && history[i].commit <= history[i-1].commit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecisionString(t *testing.T) {
	if Commit.String() != "commit" || Abort.String() != "abort" {
		t.Error("Decision.String mismatch")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should still render")
	}
}

func BenchmarkCertifyNoConflict(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := &Writeset{Ops: []WriteOp{{Kind: OpUpdate, Table: "t", Key: string(rune(i))}}}
		e.Certify(e.SystemVersion(), ws, 0)
		if i%4096 == 0 && e.SystemVersion() > 4096 {
			e.Truncate(e.SystemVersion() - 1024)
		}
	}
}
