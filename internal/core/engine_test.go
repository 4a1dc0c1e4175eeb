package core

import (
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
	}
}
