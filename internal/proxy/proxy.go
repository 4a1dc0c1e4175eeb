// Package proxy implements the transparent middleware proxy that sits
// in front of each database replica (paper §6.2): it intercepts BEGIN
// and COMMIT, tracks the replica version, invokes certification, and
// applies the certifier's committed stream.
//
// Every replica runs one commit pipeline (see pipeline.go). Commits
// certify against the certifier group that owns their keys; the
// committed entries of every group — the replica's own included —
// reach a single merger goroutine, which rebuilds the global order
// (with one group, simply the log order) and is the replica's only
// announcer. A committing client waits for its own entry's merged
// position and commits through its transaction handle there. The
// three systems compared in the paper are three durability points on
// that pipeline:
//
//   - Base: ordering in the middleware, durability in the database.
//     The merger installs runs of remote entries and each own commit
//     serially, each paying its own synchronous WAL flush — the
//     scalability bottleneck the paper identifies.
//   - Tashkent-MW: the same serial installs, but the database runs
//     with synchronous writes disabled; durability lives in the
//     certifier's group-committed log, so replica commits are
//     in-memory operations.
//   - Tashkent-API: the database keeps durability, but installs go
//     through the dependency-tracked parallel applier (schedule.go):
//     own commits and coalesced runs of remote entries log their
//     commit records concurrently, so the database groups them into
//     shared fsyncs, while publication follows the global order
//     exactly (the extended COMMIT <seq> API of §5.2).
//
// The proxy also implements the paper's optimizations: local
// certification (§6.2), eager pre-certification for deadlock avoidance
// (§8.2), staleness bounding (§6.2), and soft recovery (§8.1).
package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// Mode selects the commit strategy.
type Mode int

// The three systems compared in the paper.
const (
	// Base separates ordering (middleware) from durability (database).
	Base Mode = iota + 1
	// TashkentMW unites them in the middleware (certifier log).
	TashkentMW
	// TashkentAPI unites them in the database (ordered commits).
	TashkentAPI
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Base:
		return "base"
	case TashkentMW:
		return "tashMW"
	case TashkentAPI:
		return "tashAPI"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrCertificationAbort is returned to the client when certification
// (global or local) found a write-write conflict; the client may retry
// the whole transaction.
var ErrCertificationAbort = errors.New("proxy: transaction aborted by certification")

// ErrProxyClosed reports use of a closed proxy. A commit that was
// still waiting for its merged position when the proxy closed fails
// with an error matching both ErrProxyClosed and mvstore.ErrCrashed:
// the replica went away under the commit, and its outcome is unknown.
var ErrProxyClosed = errors.New("proxy: closed")

// ErrReadOnlyDegraded reports that the certifier tier is unreachable
// (its group breaker is open) and the replica has degraded to
// read-only service: snapshot reads keep being served at the last
// merged version, while update commits fail fast with this error
// instead of hanging for the certifier client's full retry budget.
// Errors carrying it also match certifier.ErrDegraded.
var ErrReadOnlyDegraded = errors.New("proxy: certifier unreachable, serving reads only at last merged version")

// certError wraps a certification failure, promoting a degraded
// certifier group into the typed read-only-degradation error.
func certError(err error) error {
	if errors.Is(err, certifier.ErrDegraded) {
		return fmt.Errorf("%w: %w", ErrReadOnlyDegraded, err)
	}
	return fmt.Errorf("proxy: certification: %w", err)
}

// deadlineNano converts ctx's deadline to the wire representation
// (UnixNano, 0 = none).
func deadlineNano(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return 0
}

// Stats is a snapshot of proxy activity.
type Stats struct {
	Commits          int64
	ReadOnlyCommits  int64
	CertAborts       int64 // certifier-decided aborts
	LocalCertAborts  int64 // aborts decided locally without a round trip
	RemoteApplied    int64 // writesets installed from the certifier stream
	RemoteChunks     int64 // coalesced runs of stream entries installed as one commit
	EagerKills       int64 // local transactions killed to admit stream writesets
	SoftRecoveries   int64 // §8.1 soft-recovery rounds
	Resyncs          int64 // full pull-based resynchronizations
	StalenessPulls   int64
	CrossPartCommits int64 // cross-partition transactions committed
	CrossPartAborts  int64 // cross-partition transactions aborted in prepare
}

// Config parameterizes a proxy.
type Config struct {
	Mode      Mode
	ReplicaID int
	Store     *mvstore.Store
	// Cert is the client of a single certifier group; New serves it as
	// a one-group topology. Ignored when Parts is set.
	Cert *certifier.Client
	// LocalCertification enables the proxy-side pre-check against
	// recently merged stream entries.
	LocalCertification bool
	// EagerPreCert kills conflicting local transactions before
	// installing a stream writeset instead of relying on lock timeouts.
	// Transactions already in their commit phase are killed either way
	// (see killConflictingLocals).
	EagerPreCert bool
	// StalenessBound, if nonzero, pulls committed entries from the
	// certifiers after this much idle time.
	StalenessBound time.Duration
	// ChunkWaitTimeout bounds each wait for predecessors to publish
	// between install retries (0 = 5 s).
	ChunkWaitTimeout time.Duration
	// ApplyWorkers sets the width of the dependency-tracked parallel
	// applier (see schedule.go). Tashkent-API always runs it — its
	// concurrent installs are what share fsyncs — with
	// defaultAPIWorkers when ApplyWorkers is 0; the other modes run it
	// when ApplyWorkers > 1 and otherwise keep the paper's serial apply
	// discipline.
	ApplyWorkers int
	// Parts is the certifier topology of a partitioned deployment (see
	// internal/partition): commits route by partition across its
	// groups.
	Parts *partition.Topology
}

// Proxy is the per-replica replication middleware.
type Proxy struct {
	cfg Config

	mu         sync.Mutex
	lastRemote time.Time
	committing map[uint64]struct{} // store tx ids in their commit phase
	stats      Stats
	closed     bool

	// Local-certification log of recently merged entries, plus the
	// items of stream writesets currently mid-installation (for eager
	// pre-certification of local writes).
	logMu         sync.Mutex
	recent        []remoteRecord
	inFlightItems map[core.ItemID]int
	// applierTxs are the store transaction ids of in-flight stream
	// installers. Eager pre-certification must never pick one as a
	// kill victim: appliers install *committed* global state, and two
	// overlapping appliers killing each other livelock until both
	// exhaust their retries. Appliers serialize on row locks and the
	// store's labeled-commit gate instead.
	applierTxs map[uint64]struct{}

	merge *mergeState
	// sched is the parallel applier (nil = serial installs).
	sched *applyScheduler

	stopCh chan struct{}
	wg     sync.WaitGroup
}

type remoteRecord struct {
	version uint64
	items   []core.ItemID
}

// maxRecent is how many merged entries the local-certification log
// keeps at least (it holds at most a quarter more).
const maxRecent = 4096

// defaultAPIWorkers is the Tashkent-API applier width when
// Config.ApplyWorkers is unset. Each install holds its worker through
// one replica fsync, so the width is also how many remote installs can
// share one.
const defaultAPIWorkers = 8

// New creates a proxy and starts its merger and staleness-bounding
// loops.
func New(cfg Config) *Proxy {
	if cfg.ChunkWaitTimeout == 0 {
		cfg.ChunkWaitTimeout = 5 * time.Second
	}
	if cfg.Parts == nil {
		cfg.Parts = &partition.Topology{Map: partition.Map{N: 1}, Groups: []*certifier.Client{cfg.Cert}}
	}
	p := &Proxy{
		cfg:           cfg,
		committing:    make(map[uint64]struct{}),
		inFlightItems: make(map[core.ItemID]int),
		applierTxs:    make(map[uint64]struct{}),
		lastRemote:    time.Now(),
		stopCh:        make(chan struct{}),
		merge:         newMergeState(cfg.Parts),
	}
	workers := cfg.ApplyWorkers
	if cfg.Mode == TashkentAPI && workers == 0 {
		workers = defaultAPIWorkers
	}
	if cfg.Mode == TashkentAPI || workers > 1 {
		p.sched = newApplyScheduler(p, workers)
	}
	p.wg.Add(1)
	go p.mergerLoop()
	if cfg.StalenessBound > 0 {
		p.wg.Add(1)
		go p.stalenessLoop()
	}
	return p
}

// Close stops background activity. The store is left to its owner.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stopCh)
	p.merge.broadcast() // wake a Resync waiting for the merge
	if p.sched != nil {
		p.sched.stop()
	}
	p.wg.Wait()
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ReplicaVersion returns the merged version through which this
// replica has applied the certifier stream.
func (p *Proxy) ReplicaVersion() uint64 {
	p.merge.mu.Lock()
	defer p.merge.mu.Unlock()
	return p.merge.mergedApplied
}

// Tx is a client transaction handle mediated by the proxy.
type Tx struct {
	p     *Proxy
	inner *mvstore.Tx
	start uint64
	// observed is the store's visible ceiling sampled *after* the
	// snapshot was taken: an upper bound on everything the snapshot can
	// expose.
	// The conservative start label is what certification wants, but a
	// session's causal token must cover the snapshot's actual content —
	// a commit announced between the two samples is visible in the
	// snapshot yet above start.
	observed uint64
	done     bool
	// commitVersion is the transaction's position in the global commit
	// order, recorded on a successful commit. Read-only transactions
	// record their observed version: the causal token of a session that
	// only read must still cover everything the snapshot exposed.
	commitVersion uint64
	// startVec is the per-group start vector: the snapshot's
	// conservative position in each group's version space.
	startVec []uint64
}

// SnapshotVersion returns the replica version the transaction's
// snapshot was labeled with at BEGIN.
func (t *Tx) SnapshotVersion() uint64 { return t.start }

// ObservedVersion returns the version ceiling of the transaction's
// snapshot — the store's visible ceiling sampled just after the
// snapshot was taken. Sessions use it to advance their causal token on reads and
// aborts: it covers everything the snapshot exposed, at worst
// over-approximating (which only lengthens a later causal wait).
func (t *Tx) ObservedVersion() uint64 { return t.observed }

// CommitVersion returns the global version assigned to the
// transaction by certification (its snapshot version for read-only
// transactions); zero until Commit succeeds. Sessions use it as the
// causal token for read-your-writes routing.
func (t *Tx) CommitVersion() uint64 { return t.commitVersion }

// Begin intercepts BEGIN: the transaction receives the latest local
// snapshot, labeled with the replica version (sampled *before* the
// snapshot so the label is conservative, which is safe under GSI —
// paper §6.2 "Conservative assigning of versions").
func (p *Proxy) Begin() (*Tx, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrProxyClosed
	}
	p.mu.Unlock()
	// Sampled before the snapshot, like start: the vector advances only
	// after a merged version is announced, so each component is a
	// conservative label in its group's version space.
	startVec := p.merge.startVec()
	start := p.cfg.Store.AnnouncedVersion()
	inner, err := p.cfg.Store.Begin()
	if err != nil {
		return nil, err
	}
	tx := &Tx{p: p, inner: inner, start: start, observed: p.cfg.Store.VisibleCeiling(), startVec: startVec}
	if p.cfg.EagerPreCert {
		inner.SetWriteHook(p.preCertHook())
	}
	return tx, nil
}

// preCertHook is the eager pre-certification write hook: each local
// write is checked against the stream writesets currently being
// installed; a conflict aborts the local write immediately (the
// committed writeset must win, §8.2).
func (p *Proxy) preCertHook() mvstore.WriteHook {
	return func(op core.WriteOp) error {
		if p.remoteInFlightConflicts(op.Item()) {
			return fmt.Errorf("%w: eager pre-certification against in-flight remote writeset", ErrCertificationAbort)
		}
		return nil
	}
}

// Read/write passthroughs.

// Read returns the row visible in the transaction snapshot. The map
// is a shared immutable row version (see mvstore.Tx.Read); callers
// must not modify it.
func (t *Tx) Read(table, key string) (map[string][]byte, bool, error) {
	return t.inner.Read(table, key)
}

// ReadCol returns one column.
func (t *Tx) ReadCol(table, key, col string) ([]byte, bool, error) {
	return t.inner.ReadCol(table, key, col)
}

// Insert writes a full row.
func (t *Tx) Insert(table, key string, cols map[string][]byte) error {
	return t.inner.Insert(table, key, cols)
}

// Update modifies columns.
func (t *Tx) Update(table, key string, cols map[string][]byte) error {
	return t.inner.Update(table, key, cols)
}

// Delete removes a row.
func (t *Tx) Delete(table, key string) error {
	return t.inner.Delete(table, key)
}

// Abort rolls back.
func (t *Tx) Abort() error {
	t.done = true
	return t.inner.Abort()
}

// Commit intercepts COMMIT with background context.
//
// Deprecated: use CommitCtx, which supports cancellation.
func (t *Tx) Commit() error { return t.CommitCtx(context.Background()) }

// CommitCtx intercepts COMMIT (paper §6.2 step C): read-only
// transactions commit immediately; update transactions go through
// local certification, then certification by the groups owning their
// keys, then wait for their merged position on this replica.
//
// Cancellation semantics: ctx is honored before and during the
// certification round trip. If ctx expires while certification is in
// flight, CommitCtx aborts the local handle and returns an error, but
// — as with any distributed commit — the certifier may still have
// committed the transaction; the caller must treat the outcome as
// unknown. A committed entry reaches this replica through the stream
// like any other, so no hole results. Once the certifier's decision
// has arrived the remaining local work completes regardless of ctx
// (it is bounded by the proxy's own timeouts).
func (t *Tx) CommitCtx(ctx context.Context) error {
	if t.done {
		return mvstore.ErrTxDone
	}
	t.done = true
	p := t.p
	if err := ctx.Err(); err != nil {
		t.inner.Abort()
		return err
	}
	ws := t.inner.Writeset()
	if ws.Empty() {
		if err := t.inner.Commit(); err != nil {
			return err
		}
		t.commitVersion = t.observed
		p.addStat(func(st *Stats) { st.ReadOnlyCommits++ })
		return nil
	}

	// Local certification (§6.2): a conflict with an already-merged
	// entry aborts without bothering the certifier.
	if p.cfg.LocalCertification && p.localConflict(ws, t.start) {
		t.inner.Abort()
		p.addStat(func(st *Stats) { st.LocalCertAborts++ })
		return fmt.Errorf("%w (local certification)", ErrCertificationAbort)
	}

	p.markCommitting(t.inner.ID(), true)
	defer p.markCommitting(t.inner.ID(), false)
	parts := p.merge.topo.Map.Split(ws)
	if len(parts) == 1 {
		return p.commitSinglePartition(ctx, t, ws, parts[0].PID)
	}
	return p.commitCrossPartition(ctx, t, ws, parts)
}

// markCommitting tracks transactions in their commit phase (see
// killConflictingLocals).
func (p *Proxy) markCommitting(id uint64, on bool) {
	p.mu.Lock()
	if on {
		p.committing[id] = struct{}{}
	} else {
		delete(p.committing, id)
	}
	p.mu.Unlock()
}

// isCommitting reports whether id is in its commit phase.
func (p *Proxy) isCommitting(id uint64) bool {
	p.mu.Lock()
	_, ok := p.committing[id]
	p.mu.Unlock()
	return ok
}

// localConflict checks ws against merged entries with versions in
// (start, now]; finding one proves the certifier would abort.
func (p *Proxy) localConflict(ws *core.Writeset, start uint64) bool {
	items := make(map[core.ItemID]struct{}, len(ws.Ops))
	for i := range ws.Ops {
		items[ws.Ops[i].Item()] = struct{}{}
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	for i := len(p.recent) - 1; i >= 0; i-- {
		rec := &p.recent[i]
		if rec.version <= start {
			break
		}
		for _, it := range rec.items {
			if _, hit := items[it]; hit {
				return true
			}
		}
	}
	return false
}

// recordMerged adds a drained run of merged actions to the local-
// certification log, labeled by merged version. Every committed entry
// counts, whatever its origin: any of them intersecting a later
// commit's writeset inside its snapshot window dooms that commit.
func (p *Proxy) recordMerged(acts []partition.Action) {
	if !p.cfg.LocalCertification {
		return
	}
	p.logMu.Lock()
	for _, a := range acts {
		if a.WS != nil {
			p.recent = append(p.recent, remoteRecord{version: a.MV, items: a.WS.Items()})
		}
	}
	if len(p.recent) >= maxRecent+maxRecent/4 {
		// Trim in quarters: a copy per drain once full would move the
		// whole log on every commit.
		p.recent = append([]remoteRecord(nil), p.recent[len(p.recent)-maxRecent:]...)
	}
	p.logMu.Unlock()
}

// remoteInFlightConflicts reports whether an item collides with a
// stream writeset currently being installed.
func (p *Proxy) remoteInFlightConflicts(item core.ItemID) bool {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	_, hit := p.inFlightItems[item]
	return hit
}

// markInFlight registers (or unregisters) the items of a stream
// writeset being installed.
func (p *Proxy) markInFlight(ws *core.Writeset, on bool) {
	items := ws.Items()
	p.logMu.Lock()
	for _, it := range items {
		if on {
			p.inFlightItems[it]++
		} else if n := p.inFlightItems[it]; n <= 1 {
			delete(p.inFlightItems, it)
		} else {
			p.inFlightItems[it] = n - 1
		}
	}
	p.logMu.Unlock()
}

// killConflictingLocals clears the way for a stream writeset: local
// transactions holding locks it needs are killed so it can proceed.
// With eager pre-certification every conflicting local is a victim
// (§8.2 — "the proxy aborts the conflicting local update transaction,
// which allows the remote writeset to be executed"). A transaction in
// its commit phase is a victim in every mode: if it commits, the
// stream carries its writeset, and the merger installs it from there
// when the handle is gone — while a merger blocked on its locks could
// wait for the very entry it is blocking (its own, pulled before its
// certification response arrived).
func (p *Proxy) killConflictingLocals(ws *core.Writeset) {
	for _, id := range p.cfg.Store.ConflictingActiveTxns(ws, 0) {
		if p.isApplierTx(id) {
			continue // fellow appliers install committed state; never kill them
		}
		if !p.cfg.EagerPreCert && !p.isCommitting(id) {
			continue
		}
		if p.cfg.Store.Kill(id) {
			p.addStat(func(st *Stats) { st.EagerKills++ })
		}
	}
}

// markApplier registers (or unregisters) an applier transaction id.
func (p *Proxy) markApplier(id uint64, on bool) {
	p.logMu.Lock()
	if on {
		p.applierTxs[id] = struct{}{}
	} else {
		delete(p.applierTxs, id)
	}
	p.logMu.Unlock()
}

// isApplierTx reports whether id belongs to an in-flight applier.
func (p *Proxy) isApplierTx(id uint64) bool {
	p.logMu.Lock()
	_, ok := p.applierTxs[id]
	p.logMu.Unlock()
	return ok
}

// stalenessLoop implements bounding staleness (§6.2): if the replica
// has not received stream entries for the configured bound, pull them
// proactively.
func (p *Proxy) stalenessLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.StalenessBound)
	defer tick.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-tick.C:
		}
		p.mu.Lock()
		idle := time.Since(p.lastRemote)
		p.mu.Unlock()
		if idle < p.cfg.StalenessBound {
			continue
		}
		p.PullOnce()
	}
}

// SetReplicaVersion initializes the apply cursors after recovery: the
// database state already covers merged versions up to v. A one-group
// stream resumes right after v, since its merged order is its log
// order. With several groups v does not say how far each group's
// stream got, so the merger replays every stream from index 1 and the
// store's labeled-commit gate turns the covered prefix into no-ops.
func (p *Proxy) SetReplicaVersion(v uint64) {
	if len(p.merge.topo.Groups) == 1 {
		p.merge.resume([]uint64{v})
	}
}

func (p *Proxy) addStat(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}
