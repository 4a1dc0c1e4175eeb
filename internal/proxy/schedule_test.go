package proxy

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/simdisk"
	"tashkent/internal/wal"
)

// upEntry builds one single-key update RemoteEntry at version v.
func upEntry(v uint64, key string, cols ...core.ColUpdate) RemoteEntry {
	if len(cols) == 0 {
		cols = []core.ColUpdate{{Col: "v", Value: []byte(fmt.Sprintf("%d", v))}}
	}
	return RemoteEntry{Version: v, WS: &core.Writeset{Ops: []core.WriteOp{
		{Kind: core.OpUpdate, Table: "t", Key: key, Cols: cols},
	}}}
}

func TestParallelApplyDisjointParallelizes(t *testing.T) {
	// Disjoint-key writesets must install concurrently: with a slow
	// fsync the workers' WAL appends group into shared fsyncs, and the
	// parallelism high-watermark exceeds one. This is the mechanism
	// behind the applyscale speedup.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 2 * time.Millisecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p := r.proxies[0]
	const n = 64
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%03d", v)))
	}
	if err := p.ApplyRemoteEntries(entries); err != nil {
		t.Fatal(err)
	}
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	for v := uint64(1); v <= n; v++ {
		if got, ok := readVal(t, p, "t", fmt.Sprintf("k%03d", v)); !ok || got != fmt.Sprintf("%d", v) {
			t.Fatalf("k%03d = %q, %v", v, got, ok)
		}
	}
	st := p.ApplyStats()
	if st.Published != n {
		t.Errorf("Published = %d, want %d (superseded %d, gaveUp %d)",
			st.Published, n, st.Superseded, st.GaveUp)
	}
	if st.Parallelism.Max < 2 {
		t.Errorf("Parallelism.Max = %d; disjoint installs never overlapped", st.Parallelism.Max)
	}
	if f := logDisk.Stats().Fsyncs; f >= n {
		t.Errorf("%d fsyncs for %d parallel installs; expected group commit", f, n)
	}
}

func TestParallelApplyOverlappingSerializes(t *testing.T) {
	// Same-key writesets form a dependency chain: each install must wait
	// for its predecessor's publication, because update-installs merge
	// the previously visible columns. Every version updates a different
	// column of one hot row; if the scheduler ever installed out of
	// order, the merge would drop a predecessor's column.
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
	})
	p := r.proxies[0]
	const n = 16
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, "hot",
			core.ColUpdate{Col: fmt.Sprintf("c%02d", v), Value: []byte(fmt.Sprintf("%d", v))}))
	}
	if err := p.ApplyRemoteEntries(entries); err != nil {
		t.Fatal(err)
	}
	if err := r.stores[0].WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	row, ok, err := tx.Read("t", "hot")
	if err != nil || !ok {
		t.Fatalf("Read(hot) = %v, %v", ok, err)
	}
	for v := uint64(1); v <= n; v++ {
		col := fmt.Sprintf("c%02d", v)
		if string(row[col]) != fmt.Sprintf("%d", v) {
			t.Errorf("column %s = %q; a same-key install ran before its predecessor published",
				col, row[col])
		}
	}
	if st := p.ApplyStats(); st.Published != n {
		t.Errorf("Published = %d, want %d", st.Published, n)
	}
}

func TestParallelApplyPublicationOrderTotal(t *testing.T) {
	// Under concurrent installs a reader must always see a version-
	// ordered prefix: if key v is visible, every key v' < v is too.
	// Mixed dependency structure (every third version hits a hot key)
	// exercises both parallel and chained publication paths.
	logDisk := simdisk.New(simdisk.Profile{FsyncLatency: 500 * time.Microsecond}, 1)
	r := newRig(t, 1, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		cfg.ApplyWorkers = 8
		scfg.LogDisk = logDisk
		scfg.WALMode = wal.SyncCommits
	})
	p, store := r.proxies[0], r.stores[0]
	const n = 96
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		key := fmt.Sprintf("k%03d", v)
		e := upEntry(v, key)
		if v%3 == 0 {
			e.WS.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: "hot",
				Cols: []core.ColUpdate{{Col: "v", Value: []byte(fmt.Sprintf("%d", v))}}})
		}
		entries = append(entries, e)
	}

	var stop atomic.Bool
	violation := make(chan string, 1)
	go func() {
		for !stop.Load() {
			tx, err := store.Begin()
			if err != nil {
				return
			}
			// Scan from the top: the highest visible version bounds what
			// the snapshot must contain below it.
			high := uint64(0)
			for v := uint64(n); v >= 1; v-- {
				if _, ok, _ := tx.ReadCol("t", fmt.Sprintf("k%03d", v), "v"); ok {
					high = v
					break
				}
			}
			for v := uint64(1); v < high; v++ {
				if _, ok, _ := tx.ReadCol("t", fmt.Sprintf("k%03d", v), "v"); !ok {
					select {
					case violation <- fmt.Sprintf("snapshot shows k%03d but not k%03d", high, v):
					default:
					}
					break
				}
			}
			tx.Abort()
		}
	}()

	if err := p.ApplyRemoteEntries(entries); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitAnnounced(n, 10*time.Second); err != nil {
		t.Fatalf("WaitAnnounced(%d): %v", n, err)
	}
	stop.Store(true)
	select {
	case msg := <-violation:
		t.Fatal(msg)
	default:
	}
	if st := p.ApplyStats(); st.Published != n || st.GaveUp != 0 {
		t.Errorf("Published = %d GaveUp = %d, want %d/0", st.Published, st.GaveUp, n)
	}
}

func TestParallelApplyMatchesSerialState(t *testing.T) {
	// The parallel applier must reach exactly the serial path's final
	// state on a conflicted stream (same-key versions serialize through
	// dependency edges; disjoint ones commute via absolute values).
	r := newRig(t, 2, TashkentAPI, func(i int, cfg *Config, scfg *mvstore.Config) {
		if i == 0 {
			cfg.ApplyWorkers = 8
		}
	})
	const n = 150
	entries := make([]RemoteEntry, 0, n)
	for v := uint64(1); v <= n; v++ {
		entries = append(entries, upEntry(v, fmt.Sprintf("k%02d", (v*7)%30)))
	}
	for i, p := range r.proxies {
		if err := p.ApplyRemoteEntries(entries); err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		if err := r.stores[i].WaitAnnounced(n, 10*time.Second); err != nil {
			t.Fatalf("proxy %d WaitAnnounced: %v", i, err)
		}
	}
	if a, b := r.stores[0].Fingerprint(), r.stores[1].Fingerprint(); a != b {
		t.Fatalf("parallel fingerprint %08x != serial fingerprint %08x", a, b)
	}
}
