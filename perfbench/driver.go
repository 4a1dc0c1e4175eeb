package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/workload"
)

// txn is a transaction handle as the clients see it: the workload's
// transaction interface plus the commit version, which orders
// acknowledged writes for the read-back check.
type txn interface {
	workload.Tx
	CommitVersion() uint64
}

// beginFunc opens one transaction for one client.
type beginFunc func(readOnly bool) (txn, error)

// Transaction outcomes.
const (
	outCommitted uint8 = iota
	outAborted         // benign SI / certification abort
	outFailed          // anything else: error, timeout, shed, degraded
)

// txRecord is one attempted transaction, timed from begin to the
// commit acknowledgement, in nanoseconds since the load's epoch.
type txRecord struct {
	start, end int64
	readOnly   bool
	outcome    uint8
}

// cell is one column of one row.
type cell struct{ table, key, col string }

// ackedWrite is the value of a cell written by an acknowledged commit.
type ackedWrite struct {
	version uint64
	value   []byte
}

// client is one closed-loop client's private state; only its own
// goroutine touches it until the load has stopped.
type client struct {
	recs  []txRecord
	acked map[cell]ackedWrite
	spans []txSpan // traced runs only
	err   error    // first non-benign failure, for the report
}

func newClient() *client { return &client{acked: make(map[cell]ackedWrite)} }

// ack records the writes of a committed transaction. A cell keeps the
// value of the commit with the highest version: the version order is
// the order every replica applies.
func (c *client) ack(version uint64, writes []pendingWrite) {
	for _, w := range writes {
		if old, ok := c.acked[w.cell]; ok && old.version > version {
			continue
		}
		c.acked[w.cell] = ackedWrite{version: version, value: w.value}
	}
}

// pendingWrite is a write of a transaction not yet acknowledged.
type pendingWrite struct {
	cell  cell
	value []byte
}

// trackedTx decorates a client transaction: it keeps the writes for
// the read-back check and, in traced runs, times every call. During
// the load (ctl set) it also records the transaction's outcome.
type trackedTx struct {
	inner    txn
	c        *client
	tr       *tracer // nil when untraced
	id       uint64
	writes   []pendingWrite
	ctl      *loadCtl // nil outside the load
	start    time.Time
	readOnly bool
	err      error // last error a call returned
}

func (t *trackedTx) span(kind spanKind, start time.Time) {
	if t.tr != nil {
		t.c.spans = append(t.c.spans, txSpan{tx: t.id, kind: kind, start: t.tr.since(start), end: t.tr.since(time.Now())})
	}
}

// note keeps a call's error, which decides the outcome if the
// generator then abandons the transaction.
func (t *trackedTx) note(err error) {
	if err != nil {
		t.err = err
	}
}

func (t *trackedTx) Read(table, key string) (map[string][]byte, bool, error) {
	start := time.Now()
	row, ok, err := t.inner.Read(table, key)
	t.span(spanRead, start)
	t.note(err)
	return row, ok, err
}

func (t *trackedTx) ReadCol(table, key, col string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := t.inner.ReadCol(table, key, col)
	t.span(spanRead, start)
	t.note(err)
	return v, ok, err
}

func (t *trackedTx) record(table, key string, cols map[string][]byte) {
	for col, v := range cols {
		t.writes = append(t.writes, pendingWrite{cell{table, key, col}, v})
	}
}

func (t *trackedTx) Insert(table, key string, cols map[string][]byte) error {
	start := time.Now()
	err := t.inner.Insert(table, key, cols)
	t.span(spanWrite, start)
	t.note(err)
	if err == nil {
		t.record(table, key, cols)
	}
	return err
}

func (t *trackedTx) Update(table, key string, cols map[string][]byte) error {
	start := time.Now()
	err := t.inner.Update(table, key, cols)
	t.span(spanWrite, start)
	t.note(err)
	if err == nil {
		t.record(table, key, cols)
	}
	return err
}

// Delete passes through untracked: none of the generators delete rows.
func (t *trackedTx) Delete(table, key string) error { return t.inner.Delete(table, key) }

// errBody stands for a generator failure that no call reported.
var errBody = errors.New("transaction body failed")

// Abort ends a transaction its generator abandoned; the outcome is
// that of the call that failed.
func (t *trackedTx) Abort() error {
	err := t.inner.Abort()
	if t.ctl != nil {
		if t.err == nil {
			t.err = errBody
		}
		t.ctl.finish(t.c, t.start, t.readOnly, t.err)
	}
	return err
}

// Commit times the commit; in traced runs it registers the
// transaction under its first written item so the tracer can tie the
// certify RPC to it. The load's context only stops the clients: a
// commit in flight when it is cancelled runs to its outcome.
func (t *trackedTx) Commit(context.Context) error {
	start := time.Now()
	var first core.ItemID
	if t.tr != nil && len(t.writes) > 0 {
		first = core.ItemID{Table: t.writes[0].cell.table, Key: t.writes[0].cell.key}
		t.tr.commitStarted(first, t.id)
	}
	err := t.inner.Commit(context.Background())
	if t.tr != nil {
		kind := spanCommit
		if len(t.writes) > 0 {
			t.tr.commitEnded(first)
			kind = spanCommitUpdate
		}
		t.span(kind, start)
	}
	if err == nil && len(t.writes) > 0 {
		t.c.ack(t.inner.CommitVersion(), t.writes)
	}
	if t.ctl != nil {
		t.ctl.finish(t.c, t.start, t.readOnly, err)
	}
	return err
}

// classify maps a transaction error to its outcome.
func classify(err error) uint8 {
	switch {
	case err == nil:
		return outCommitted
	case workload.IsAbort(err):
		return outAborted
	default:
		return outFailed
	}
}

// loadSpec is the closed-loop load of one workload.
type loadSpec struct {
	gen      workload.Generator
	replicas int
	clients  int // per replica
	execTime time.Duration
	// commits > 0 stops the load after that many committed updates;
	// otherwise it runs warmup + measure.
	commits         int
	warmup, measure time.Duration
}

// loadResult holds what a load left behind.
type loadResult struct {
	clients []*client
	// windowStart/windowEnd bound the measurement window (ns since
	// epoch); loadEnd is when the last client stopped.
	windowStart, windowEnd, loadEnd int64
}

// maxFixedLoad caps a fixed-commit load so a run always ends.
const maxFixedLoad = 120 * time.Second

// loadCtl is the state the clients of one load share: transaction
// ids, and the commit count that ends a fixed-commit load.
type loadCtl struct {
	epoch     time.Time
	tr        *tracer
	txIDs     atomic.Uint64
	limit     int64 // committed updates that end the load; 0: none
	committed atomic.Int64
	nth       atomic.Int64 // ns since epoch of the limit-th commit
	cancel    context.CancelFunc
}

func (l *loadCtl) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// begin decorates client c's begin function: every transaction it
// opens is tracked, and its outcome recorded in c.
func (l *loadCtl) begin(c *client, begin beginFunc) workload.BeginFunc {
	return func(_ context.Context, readOnly bool) (workload.Tx, error) {
		id := l.txIDs.Add(1)
		start := time.Now()
		inner, err := begin(readOnly)
		if l.tr != nil {
			c.spans = append(c.spans, txSpan{tx: id, kind: spanBegin, start: l.since(start), end: l.since(time.Now())})
		}
		if err != nil {
			l.finish(c, start, readOnly, err)
			return nil, err
		}
		return &trackedTx{inner: inner, c: c, tr: l.tr, id: id, ctl: l, start: start, readOnly: readOnly}, nil
	}
}

// finish records one transaction of client c, from its begin to its
// outcome.
func (l *loadCtl) finish(c *client, start time.Time, readOnly bool, err error) {
	end := time.Now()
	out := classify(err)
	c.recs = append(c.recs, txRecord{start: l.since(start), end: l.since(end), readOnly: readOnly, outcome: out})
	if out == outFailed && c.err == nil {
		c.err = err
	}
	if out == outCommitted && !readOnly && l.limit > 0 && l.committed.Add(1) == l.limit {
		l.nth.Store(l.since(end))
		l.cancel()
	}
}

// runLoad drives the closed loop with workload.Run. newBegin(rep, cl)
// returns client cl's begin function on replica group rep. Every
// client gets its own begin function (its own session, where there
// are sessions), so Run sees one client per begin function and hands
// the generator the client's overall index as its replica number; the
// generators use it only to name keys.
func runLoad(ls loadSpec, seed int64, newBegin func(rep, cl int) beginFunc, tr *tracer, epoch time.Time) (*loadResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctl := &loadCtl{epoch: epoch, tr: tr, limit: int64(ls.commits), cancel: cancel}
	res := &loadResult{}
	var begins []workload.BeginFunc
	for rep := 0; rep < ls.replicas; rep++ {
		for cl := 0; cl < ls.clients; cl++ {
			c := newClient()
			res.clients = append(res.clients, c)
			begins = append(begins, ctl.begin(c, newBegin(rep, cl)))
		}
	}
	cfg := workload.RunConfig{ClientsPerReplica: 1, Warmup: ls.warmup, Measure: ls.measure,
		ExecTime: ls.execTime, Seed: seed}
	if ls.commits > 0 {
		cfg.Warmup, cfg.Measure = 0, maxFixedLoad
	}
	workload.Run(ctx, ls.gen, begins, cfg)
	res.loadEnd = ctl.since(time.Now())
	if ls.commits > 0 {
		if n := ctl.committed.Load(); n < ctl.limit {
			return nil, fmt.Errorf("load reached %d of %d commits in %v", n, ls.commits, maxFixedLoad)
		}
		res.windowEnd = ctl.nth.Load()
	} else {
		res.windowStart = int64(ls.warmup)
		res.windowEnd = int64(ls.warmup + ls.measure)
	}
	return res, nil
}

// loadStats are the end-to-end figures of one load.
type loadStats struct {
	window time.Duration
	// In the window: update attempts and their outcomes, committed
	// reads, failures of any kind, and latencies in milliseconds.
	updateAttempts, updates, aborted int
	reads, failedInWindow            int
	updateLat, readLat               []float64 // latency in ms
	// Rates over the first and the last tenth of the window's commits;
	// tailStart (ns since epoch) is where the last tenth begins.
	headTPS, tailTPS float64
	tailCount        int
	tailStart        int64
	// Over the whole load, warm-up included: what the counters and
	// traces saw.
	attempted, failed, loadCommitted int
	loadUpdateAttempts, loadUpdates  int
}

// summarize reduces the records of a load to its end-to-end figures.
// A transaction counts in the window when it both started and
// finished inside it.
func (lr *loadResult) summarize() loadStats {
	st := loadStats{window: time.Duration(lr.windowEnd - lr.windowStart)}
	var commitEnds []int64
	for _, c := range lr.clients {
		for _, r := range c.recs {
			st.attempted++
			switch {
			case r.outcome == outFailed:
				st.failed++
			case r.outcome == outCommitted:
				st.loadCommitted++
			}
			if !r.readOnly {
				st.loadUpdateAttempts++
				if r.outcome == outCommitted {
					st.loadUpdates++
				}
			}
			if r.start < lr.windowStart || r.end > lr.windowEnd {
				continue
			}
			if r.outcome == outFailed {
				st.failedInWindow++
			}
			if r.readOnly {
				if r.outcome == outCommitted {
					st.reads++
					st.readLat = append(st.readLat, float64(r.end-r.start)/1e6)
				}
				continue
			}
			st.updateAttempts++
			switch r.outcome {
			case outCommitted:
				st.updates++
				st.updateLat = append(st.updateLat, float64(r.end-r.start)/1e6)
				commitEnds = append(commitEnds, r.end)
			case outAborted:
				st.aborted++
			}
		}
	}
	sort.Slice(commitEnds, func(i, j int) bool { return commitEnds[i] < commitEnds[j] })
	if n := len(commitEnds); n >= 20 {
		k := n / 10
		st.tailCount = k
		st.tailStart = commitEnds[n-1-k]
		st.tailTPS = float64(k) / (float64(commitEnds[n-1]-commitEnds[n-1-k]) / 1e9)
		st.headTPS = float64(k) / (float64(commitEnds[k-1]-lr.windowStart) / 1e9)
	}
	return st
}

// firstErr returns the first non-benign client failure, if any.
func (lr *loadResult) firstErr() error {
	for _, c := range lr.clients {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}
