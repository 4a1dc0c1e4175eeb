package proxy

// Dependency-tracked parallel applier. The serial apply discipline —
// one labeled commit at a time through the store's order semaphore —
// makes the replica's apply path the freshness bottleneck once
// partitioned certification multiplies the commit rate, and it cannot
// share fsyncs. The scheduler converts it into a pipeline: labeled
// stream writesets are
// conflict-analyzed against the live window using stripe signatures
// (mvstore.StripeSig — key-set overlap summarized per store stripe),
// non-overlapping writesets are *installed* concurrently by a worker
// pool via CommitLabeledAsync, and the store publishes the installed
// versions strictly in global order. Readers never observe a torn or
// out-of-order snapshot: visibility is still gated by the announce
// semaphore; only the install work (locks, chain appends, WAL appends)
// runs in parallel.
//
// Dependency rule: entry B depends on entry A iff A was submitted
// before B and their stripe signatures intersect. B's install starts
// only after A *publishes* (not merely installs): update-installs
// merge the previous visible row columns and version chains must stay
// in sequence order, so a same-key successor must see its predecessor
// fully in the chain with its real sequence. Signature intersection
// over-approximates key overlap (hash collisions serialize harmlessly).
//
// Submissions must arrive in ascending version order — the single
// merger goroutine guarantees it — so "submitted before" and "earlier
// version" coincide and every dependency edge points backward in
// version order. Publication order is total regardless: the store's
// pending list publishes by from-version under the apply gate.
//
// Handle entries — a waiting client's own commit — stay out of the
// dependency graph. They depend on nothing: certification already
// rules out an unpublished same-key predecessor (every earlier writer
// of its keys lies at or below its snapshot, which was published when
// the transaction began). Nothing depends on them through signatures
// either: the handle has held its row locks since it wrote them and
// keeps them until publication, so a later install of the same key
// waits on the lock (and retries once it is published), while a mere
// stripe collision — frequent between a run of remote writesets and a
// hot own commit — costs nothing. They install at submission, through
// the client's own handle, on a goroutine of their own: their commit
// records then share fsyncs with each other and with the workers'
// installs, as the ordered commits of §5.2 do.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tashkent/internal/core"
	"tashkent/internal/metrics"
	"tashkent/internal/mvstore"
)

// Entry lifecycle.
const (
	entryWaiting   = iota // in window, deps unresolved or no worker yet
	entryRunning          // a worker is installing it
	entryInstalled        // installed, awaiting its publication turn
	entryDone             // published / superseded / given up
)

// applyEntry is one labeled writeset in the scheduler's window,
// covering global versions (from, to].
type applyEntry struct {
	from, to uint64
	ws       *core.Writeset
	// own, if set, is the waiting client whose handle commits the
	// entry (ws is its writeset, the fallback when the handle was
	// killed); viaHandle records whether it did.
	own       *ownWait
	viaHandle bool
	sig       mvstore.StripeSig
	deps      int // unpublished predecessors with intersecting signatures
	succs     []*applyEntry
	state     int
	start     time.Time
	// done, if set, runs after the entry resolves; applied reports
	// whether the replica state now covers the entry's range
	// (published or superseded). The merger uses it for its
	// vector/waiter bookkeeping.
	done func(applied bool)
}

// maxApplyWindow bounds the live window; submit blocks when full
// (backpressure toward the certifier stream rather than unbounded
// memory).
const maxApplyWindow = 4096

// applyScheduler owns the window and the worker pool.
type applyScheduler struct {
	p       *Proxy
	workers int

	mu        sync.Mutex
	cond      *sync.Cond
	window    []*applyEntry
	closed    bool
	storeDead bool

	running    int // workers mid-install
	submitted  int64
	windows    int64
	published  int64
	superseded int64
	gaveUp     int64

	parDist    metrics.Distribution // concurrent installers at each dispatch
	windowDist metrics.Distribution // entries per submitted window
	occupancy  metrics.Gauge        // live-window depth (peak vs maxApplyWindow)
	lag        *metrics.Latency     // submit → publish wall time

	wg sync.WaitGroup
}

func newApplyScheduler(p *Proxy, workers int) *applyScheduler {
	s := &applyScheduler{p: p, workers: workers, lag: metrics.NewLatency(0)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// stop drains the worker pool. Entries still in the window are
// abandoned (the process is shutting down; durable state lives in the
// certifier log).
func (s *applyScheduler) stop() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// dead reports whether an install observed a crashed store.
func (s *applyScheduler) dead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeDead
}

// submit conflict-analyzes entries against the live window and queues
// them; handle entries start installing at once. Entries must be in
// ascending version order, from the single merger goroutine — the
// analysis assumes every window entry precedes every new entry in
// version order.
func (s *applyScheduler) submit(entries []*applyEntry) {
	if len(entries) == 0 {
		return
	}
	store := s.p.cfg.Store
	var handles []*applyEntry
	defer func() {
		for _, e := range handles {
			go func(e *applyEntry) {
				defer s.wg.Done()
				s.install(e)
			}(e)
		}
	}()
	s.mu.Lock()
	for _, e := range entries {
		for len(s.window) >= maxApplyWindow && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			if e.done != nil {
				e.done(false)
			}
			return
		}
		e.state = entryWaiting
		e.start = time.Now()
		if e.own != nil {
			e.state = entryRunning
			s.wg.Add(1)
			handles = append(handles, e)
		} else if e.sig = store.Signature(e.ws); e.sig != 0 {
			for _, w := range s.window {
				if w.state != entryDone && w.sig.Intersects(e.sig) {
					w.succs = append(w.succs, e)
					e.deps++
				}
			}
		}
		s.window = append(s.window, e)
		s.occupancy.Inc()
		s.submitted++
	}
	s.windows++
	s.windowDist.Observe(int64(len(entries)))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker picks the lowest-version ready entry (deps resolved) and
// installs it. The window is kept in submission = version order, so a
// front-to-back scan finds the oldest ready work first and publication
// chains drain oldest-first.
func (s *applyScheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		var e *applyEntry
		for _, w := range s.window {
			if w.state == entryWaiting && w.deps == 0 {
				e = w
				break
			}
		}
		if e == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		e.state = entryRunning
		s.running++
		s.parDist.Observe(int64(s.running))
		s.mu.Unlock()
		s.install(e)
		s.mu.Lock()
		s.running--
	}
}

// install runs one entry with the retry/kill discipline of the serial
// path (§8.1 soft recovery, §8.2 eager kills) — but commits through
// CommitLabeledAsync, so the entry's versions publish at their global
// turn while this worker moves on. Like the serial path it retries
// until the entry lands: the merged stream cannot be skipped. Only a
// store crash or the scheduler's shutdown ends it early.
func (s *applyScheduler) install(e *applyEntry) {
	p := s.p
	cb := func(oc mvstore.PendingOutcome) {
		if e.ws != nil && !e.ws.Empty() {
			p.markInFlight(e.ws, false)
		}
		s.resolve(e, oc)
	}
	if e.ws == nil || e.ws.Empty() {
		// Hollow range (certifier barrier / fill no-ops): nothing to
		// install, the announce chain just advances through it in turn.
		if err := p.cfg.Store.AnnounceAsync(e.from, e.to, cb); err != nil {
			s.resolve(e, mvstore.PendingCrashed)
		}
		return
	}
	p.markInFlight(e.ws, true)
	if e.own != nil {
		e.viaHandle = true
		if err := e.own.tx.CommitLabeledAsync(e.from, e.to, cb); err == nil {
			return // cb owns the rest (it may already have run)
		}
		// Killed, or refused by the database: install its writeset.
		e.viaHandle = false
		p.addStat(func(st *Stats) { st.SoftRecoveries++ })
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if s.stopped() {
				break
			}
			p.addStat(func(st *Stats) { st.SoftRecoveries++ })
			// Let predecessors publish so conflicting locks drain.
			p.cfg.Store.WaitAnnounced(e.from, p.cfg.ChunkWaitTimeout)
		}
		p.killConflictingLocals(e.ws)
		err := s.installOnce(e, cb)
		if err == nil {
			return // cb owns the rest (it may already have run)
		}
		if errors.Is(err, mvstore.ErrCrashed) {
			p.markInFlight(e.ws, false)
			s.resolve(e, mvstore.PendingCrashed)
			return
		}
	}
	p.markInFlight(e.ws, false)
	s.resolve(e, 0)
}

// stopped reports whether the scheduler is shutting down.
func (s *applyScheduler) stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// installOnce is one install attempt. On success the commit is either
// pending publication or already resolved (superseded fast path) and
// cb has the rest; on error nothing was committed and the caller may
// retry.
func (s *applyScheduler) installOnce(e *applyEntry, cb func(mvstore.PendingOutcome)) error {
	p := s.p
	tx, err := p.cfg.Store.Begin()
	if err != nil {
		return err
	}
	p.markApplier(tx.ID(), true)
	defer p.markApplier(tx.ID(), false)
	if err := tx.ApplyWriteset(e.ws); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.CommitLabeledAsync(e.from, e.to, cb); err != nil {
		tx.Abort()
		return err
	}
	return nil
}

// resolve finishes an entry: record the outcome, release its
// successors (their installs may now start — the predecessor is
// published, superseded, or abandoned to resync), and drop it from the
// window. Runs from worker goroutines and from publication callbacks.
func (s *applyScheduler) resolve(e *applyEntry, oc mvstore.PendingOutcome) {
	applied := false
	s.mu.Lock()
	e.state = entryDone
	switch oc {
	case mvstore.PendingPublished:
		s.published++
		s.lag.Observe(time.Since(e.start))
		applied = true
	case mvstore.PendingSuperseded:
		// A catch-up applier carried the state past the range; it is
		// covered, just not by us.
		s.superseded++
		applied = true
	default:
		s.gaveUp++
		if oc == mvstore.PendingCrashed {
			s.storeDead = true
		}
	}
	for _, succ := range e.succs {
		succ.deps--
	}
	for i, w := range s.window {
		if w == e {
			s.window = append(s.window[:i], s.window[i+1:]...)
			s.occupancy.Dec()
			break
		}
	}
	done := e.done
	s.cond.Broadcast()
	s.mu.Unlock()
	if done != nil {
		done(applied)
	}
}

// ApplyStats is a snapshot of the parallel applier, alongside the
// certifier's QueueStats in the observability surface.
type ApplyStats struct {
	// Workers is the configured pool size (0 = serial installs).
	Workers int
	// Entry outcomes.
	Submitted  int64
	Published  int64
	Superseded int64
	GaveUp     int64
	// Windows counts submit batches; WindowSize their entry counts.
	Windows    int64
	WindowSize metrics.DistSummary
	// Parallelism samples the number of concurrent installers at each
	// dispatch; its Max is the parallelism high-watermark achieved.
	Parallelism metrics.DistSummary
	// Pending is the store's installed-but-unpublished commit count
	// right now.
	Pending int
	// WindowHigh is the peak live-window depth observed — how close the
	// scheduler came to the maxApplyWindow backpressure bound.
	WindowHigh int64
	// Lag is the submit→publish wall time per entry; LagVersions the
	// current gap between the merged versions the merger has drained
	// and the announced (visible) version.
	Lag         metrics.Summary
	LagVersions uint64
}

// ApplyStats returns the parallel-apply snapshot. With the scheduler
// disabled only the version lag is populated.
func (p *Proxy) ApplyStats() ApplyStats {
	var st ApplyStats
	ann := p.cfg.Store.AnnouncedVersion()
	p.merge.mu.Lock()
	drained := p.merge.asm.MergedVersion()
	p.merge.mu.Unlock()
	if drained > ann {
		st.LagVersions = drained - ann
	}
	s := p.sched
	if s == nil {
		return st
	}
	s.mu.Lock()
	st.Workers = s.workers
	st.Submitted = s.submitted
	st.Published = s.published
	st.Superseded = s.superseded
	st.GaveUp = s.gaveUp
	st.Windows = s.windows
	s.mu.Unlock()
	st.WindowHigh = s.occupancy.High()
	st.WindowSize = s.windowDist.Summarize()
	st.Parallelism = s.parDist.Summarize()
	st.Lag = s.lag.Summarize()
	st.Pending = p.cfg.Store.PendingApplies()
	return st
}

// RemoteEntry is one labeled writeset fed directly into the apply
// path (harness experiments and tests).
type RemoteEntry struct {
	Version uint64
	WS      *core.Writeset
}

// ApplyRemoteEntries applies labeled writesets (ascending versions)
// without a certification round trip; the applyscale experiment drives
// the apply path with it. With the parallel scheduler enabled the
// entries go through dependency analysis and the worker pool and the
// call returns once scheduled — wait on Store.WaitAnnounced for
// completion. Without it, each entry commits through the serial
// labeled path before the next starts (the serial-gate baseline).
func (p *Proxy) ApplyRemoteEntries(entries []RemoteEntry) error {
	if p.sched != nil {
		ents := make([]*applyEntry, 0, len(entries))
		for _, e := range entries {
			ents = append(ents, &applyEntry{from: e.Version - 1, to: e.Version, ws: e.WS})
		}
		p.sched.submit(ents)
		return nil
	}
	for _, e := range entries {
		if !p.installRange(e.WS, e.Version-1, e.Version) {
			return fmt.Errorf("proxy: applying v%d: %w", e.Version, mvstore.ErrCrashed)
		}
	}
	return nil
}
