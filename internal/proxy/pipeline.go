package proxy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/mvstore"
	"tashkent/internal/partition"
)

// The replica commit pipeline. The proxy talks to the certifier groups
// of its topology — one group in a plain deployment, one per keyspace
// partition in a partitioned one (see internal/partition). Commits
// route by partition: a single-partition writeset certifies in one
// round against its group; a cross-partition writeset runs the
// prepare/resolve protocol across its groups. All application goes
// through one merger goroutine that interleaves the per-group
// committed streams into the deterministic merged order (with one
// group: the log order, merged version = log index) and is the
// replica's only announcer, so every replica installs the same state
// at the same merged version.
//
// Entries reach the merger three ways: the committed entries of other
// replicas piggybacked on certification responses, a committing
// client's own entry offered straight from its response (together with
// the waiter that lets the merger commit it through the client's
// handle), and pulls — staleness pulls, and nudges when the merge
// stalls on an entry nobody delivered (a lost response, an idle
// group).

// waitKey addresses a single-partition own commit: the entry's group
// and log index.
type waitKey struct {
	g   int
	idx uint64
}

// ownDone is the merger's notification to a waiting own commit.
type ownDone struct {
	mv        uint64
	viaHandle bool  // committed through the waiting tx handle
	err       error // the install was abandoned (store crashed)
}

// ownWait is a committing client transaction waiting for its entry's
// merged apply position.
type ownWait struct {
	tx *mvstore.Tx
	ws *core.Writeset
	ch chan ownDone // buffered: the merger never blocks on it
}

// errOwnAbandoned reports an own commit whose merged install never
// completed because the store crashed under it.
var errOwnAbandoned = fmt.Errorf("proxy: merged install of own commit abandoned: %w", mvstore.ErrCrashed)

// mergeState is the merger's bookkeeping.
type mergeState struct {
	topo *partition.Topology

	mu            sync.Mutex
	asm           *partition.Assembler
	vector        []uint64 // per-group applied counts, updated after announce
	mergedApplied uint64
	applied       *sync.Cond // on mu: vector/mergedApplied advanced, or the proxy closed
	waiters       map[waitKey]*ownWait
	gidWaiters    map[uint64]*ownWait
	// doneIdx/doneGid record own entries the merger applied before the
	// commit path could register a waiter (a pull raced the response).
	doneIdx map[waitKey]uint64
	doneGid map[uint64]uint64

	wake chan struct{} // nudges the merger after new offers
}

// gidCounter is process-wide so simulated crash/recovery cycles never
// reuse a global transaction id (a reused gid would collide with its
// predecessor's decision markers in the certifier groups).
var gidCounter atomic.Uint64

// mergeStallNudge is how long the merger waits on a blocked stream
// before pulling it. Whether a short group is padded with fill no-ops
// is decided by the group itself: its pull response says whether
// certifications are in flight (entries imminent — never pad) or the
// group is idle (pad immediately; an idle partition must not stall
// the merge). mergeFillPatience is the fallback for a group that
// reports busy without committing anything for that long — under
// fault injection an in-flight request can linger for seconds on
// retries, and the merge must not wait it out.
const (
	mergeStallNudge   = 2 * time.Millisecond
	mergeFillPatience = 25 * time.Millisecond
)

// ownWaitTimeout bounds how long a certified commit waits for its
// merged position.
const ownWaitTimeout = 30 * time.Second

func newMergeState(topo *partition.Topology) *mergeState {
	n := len(topo.Groups)
	ms := &mergeState{
		topo:       topo,
		asm:        partition.NewAssembler(n),
		vector:     make([]uint64, n),
		waiters:    make(map[waitKey]*ownWait),
		gidWaiters: make(map[uint64]*ownWait),
		doneIdx:    make(map[waitKey]uint64),
		doneGid:    make(map[uint64]uint64),
		wake:       make(chan struct{}, 1),
	}
	ms.applied = sync.NewCond(&ms.mu)
	return ms
}

// resume positions a fresh merge after a prefix the store already
// covers (see Proxy.SetReplicaVersion).
func (ms *mergeState) resume(vector []uint64) {
	ms.mu.Lock()
	ms.asm.Resume(vector)
	copy(ms.vector, vector)
	ms.mergedApplied = ms.asm.MergedVersion()
	ms.mu.Unlock()
}

// startVec samples the per-group start versions for a new snapshot.
// The vector is updated only after a merged version is announced, so
// the sample taken before Store.Begin is conservative in every
// group's version space — lower starts cause at worst false aborts,
// never missed conflicts (§6.2's conservative labeling, per group).
func (ms *mergeState) startVec() []uint64 {
	ms.mu.Lock()
	v := append([]uint64(nil), ms.vector...)
	ms.mu.Unlock()
	return v
}

func (ms *mergeState) frontier(g int) uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.asm.Frontier(g)
}

// nudge wakes the merger.
func (ms *mergeState) nudge() {
	select {
	case ms.wake <- struct{}{}:
	default:
	}
}

// broadcast wakes every waiter on the applied condition.
func (ms *mergeState) broadcast() {
	ms.mu.Lock()
	ms.applied.Broadcast()
	ms.mu.Unlock()
}

// offerLocked feeds raw committed entries of group g to the assembler.
func (ms *mergeState) offerLocked(g int, remote []certifier.RemoteWS) {
	for _, r := range remote {
		ms.asm.Offer(g, r.Version, r.Data)
	}
}

// ingest feeds committed entries of group g to the assembler and
// wakes the merger.
func (p *Proxy) ingest(g int, remote []certifier.RemoteWS) {
	if len(remote) == 0 {
		return
	}
	ms := p.merge
	ms.mu.Lock()
	ms.offerLocked(g, remote)
	ms.mu.Unlock()
	p.touchRemote()
	ms.nudge()
}

// touchRemote restarts the staleness clock.
func (p *Proxy) touchRemote() {
	p.mu.Lock()
	p.lastRemote = time.Now()
	p.mu.Unlock()
}

// mergerLoop is the replica's single applier: it drains ready actions
// from the assembler and installs them in merged order. When the
// merge stalls it pulls every group at or behind the blocked position
// — and if the blocking group's log is genuinely shorter than the
// needed index, asks its leader to fill (idle partitions must not
// stall the merge).
//
// Two pacing rules keep the merge from becoming the system
// bottleneck. First, the nudge deadline is tracked across wake-ups:
// under steady traffic, wake-ups from other groups' offers arrive
// more often than the nudge interval, and a timer that re-armed on
// every wake would never fire — the merge would then advance only at
// the blocking group's natural commit cadence, which is exactly the
// stall the nudge exists to break. Second, a nudge round that
// ingested new entries re-runs immediately once the merge blocks
// again (paced by the pull RPC itself, not the timer): the merge
// horizon needs entries from every group, and waiting out the nudge
// interval per group would cap the whole replica's apply rate at
// groups-per-interval.
func (p *Proxy) mergerLoop() {
	defer p.wg.Done()
	ms := p.merge
	stallG := -2 // no stall being tracked
	var stallIdx uint64
	var stallFirst, stallSince time.Time
	hot := false // last nudge round made progress; keep streaming
	stall := time.NewTimer(time.Hour)
	stall.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		ms.mu.Lock()
		var acts []partition.Action
		for len(acts) < 256 {
			act, ok := ms.asm.Next()
			if !ok {
				break
			}
			acts = append(acts, act)
		}
		var blockG int
		var blockIdx uint64
		// Progress gate: nudges and fills are warranted only while this
		// replica has something to gain — a received entry waiting to
		// merge, or a local client waiting for its own commit's merge
		// position. Without the gate a quiescent cluster would fill
		// forever: the merge is always "blocked" on the index after the
		// last entry, and padding it just moves the block one index up.
		motive := false
		if len(acts) == 0 {
			blockG, blockIdx = ms.asm.Blocking()
			motive = ms.asm.Pending() || len(ms.waiters) > 0 || len(ms.gidWaiters) > 0
		}
		ms.mu.Unlock()

		if len(acts) > 0 {
			stallG = -2
			p.recordMerged(acts)
			if !p.applyActions(acts) {
				return // store crashed; the recovery path builds a fresh proxy
			}
			continue
		}
		if !motive {
			stallG, hot = -2, false
			select {
			case <-p.stopCh:
				return
			case <-ms.wake:
			}
			continue
		}
		now := time.Now()
		if blockG != stallG || blockIdx != stallIdx {
			stallG, stallIdx = blockG, blockIdx
			stallFirst = now
			if !hot {
				stallSince = now
			}
		}
		if wait := mergeStallNudge - now.Sub(stallSince); wait > 0 && !hot {
			stall.Reset(wait)
			select {
			case <-p.stopCh:
				return
			case <-ms.wake:
				if !stall.Stop() {
					<-stall.C
				}
			case <-stall.C:
			}
			continue
		}
		hot = p.nudgeLagging(blockG, blockIdx, now.Sub(stallFirst) >= mergeFillPatience)
		stallSince = time.Now() // re-arm: give the pulled data time to land
	}
}

// nudgeLagging unblocks a stalled merge: every group whose received
// prefix is at or behind the blocked position is pulled forward, in
// parallel — after the blocking group is resolved the merge would
// immediately block on the next-laggiest group at the same position,
// so pulling them one stall interval at a time would serialize the
// whole merge on the nudge timer. A pulled group whose committed log
// is genuinely shorter than the index the merge needs is asked to pad
// itself with fill no-ops — but only if its pull response says it is
// idle (no certifications in flight), or the force flag is set
// because the same position has been blocked past the patience
// window. Filling a busy group would be poison: the no-ops raise the
// group's index, which in turn makes every other group look short, so
// an eager fill cascades into groups padding each other forever.
// Returns whether any pull ingested new entries.
func (p *Proxy) nudgeLagging(blockG int, blockIdx uint64, fill bool) bool {
	ms := p.merge
	if blockG < 0 {
		return false
	}
	var wg sync.WaitGroup
	progressed := make([]bool, len(ms.topo.Groups))
	ms.mu.Lock()
	frontiers := make([]uint64, len(ms.topo.Groups))
	for g := range frontiers {
		frontiers[g] = ms.asm.Frontier(g)
	}
	ms.mu.Unlock()
	// An idle group is padded level with the most advanced group, not
	// just to the blocked row: every group must eventually supply an
	// entry at each index up to the leader's frontier anyway, so one
	// fill round (one fsync) covers the whole idle episode instead of
	// one fsync per merged row.
	fillTo := blockIdx
	for _, f := range frontiers {
		if f > fillTo {
			fillTo = f
		}
	}
	for g := range ms.topo.Groups {
		if frontiers[g] > blockIdx {
			continue // already past the merge horizon
		}
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			progressed[g] = p.pullGroup(g, blockIdx, fillTo, fill && g == blockG)
		}()
	}
	wg.Wait()
	for _, ok := range progressed {
		if ok {
			return true
		}
	}
	return false
}

// pullGroup pulls one group up toward needIdx, padding a genuinely
// short group with fill no-ops when its pull response reports it idle
// (or unconditionally when force is set — the patience fallback for a
// group stuck busy under fault injection). Returns whether new
// entries were ingested.
func (p *Proxy) pullGroup(g int, needIdx, fillTo uint64, force bool) bool {
	ms := p.merge
	frontier := ms.frontier(g)
	if needIdx < frontier {
		return false // already received; the merger just has not run yet
	}
	client := ms.topo.Groups[g]
	resp, err := client.Pull(certifier.PullRequest{
		Origin: p.cfg.ReplicaID, ReplicaVersion: frontier, IncludeOwn: true,
	})
	if err != nil {
		return false
	}
	p.ingest(g, resp.Remote)
	after := ms.frontier(g)
	if needIdx < after {
		return after > frontier
	}
	if resp.SystemVersion < needIdx && (!resp.Busy || force) {
		// The group is genuinely short: it has no entry at needIdx and
		// nothing in flight to produce one. Pad it so the merge can
		// pass this position.
		if fillTo < needIdx {
			fillTo = needIdx
		}
		if _, err := client.Fill(fillTo); err != nil {
			return after > frontier
		}
		resp, err = client.Pull(certifier.PullRequest{
			Origin: p.cfg.ReplicaID, ReplicaVersion: ms.frontier(g), IncludeOwn: true,
		})
		if err == nil {
			p.ingest(g, resp.Remote)
			after = ms.frontier(g)
		}
	}
	return after > frontier
}

// takeWaiter consumes the own-commit waiter addressed by act, if one
// is registered.
func (p *Proxy) takeWaiter(act partition.Action) *ownWait {
	ms := p.merge
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if act.GID != 0 {
		if w, ok := ms.gidWaiters[act.GID]; ok {
			delete(ms.gidWaiters, act.GID)
			return w
		}
		return nil
	}
	key := waitKey{act.Group, act.Index}
	if w, ok := ms.waiters[key]; ok {
		delete(ms.waiters, key)
		return w
	}
	return nil
}

// own reports whether act installs a transaction of this replica.
func (p *Proxy) own(act partition.Action) bool {
	return act.WS != nil && act.Origin == p.cfg.ReplicaID
}

// afterApply publishes a merged version: vector and cursor updates
// (strictly after the store announce — Begin samples the vector
// before the snapshot, and updating first would make starts too
// high), the stream-install count, and the done-record of an own
// entry installed without its waiter — or, if the waiter registered
// while the install ran, its notification. w is the waiter the merger
// took for act (nil if none).
func (p *Proxy) afterApply(act partition.Action, w *ownWait, viaHandle bool) {
	if w == nil && act.WS != nil {
		// Counted before the cursors move: a Resync woken by them
		// reports this install.
		p.addStat(func(st *Stats) { st.RemoteApplied++ })
	}
	ms := p.merge
	ms.mu.Lock()
	if act.Index > ms.vector[act.Group] {
		ms.vector[act.Group] = act.Index
	}
	if act.MV > ms.mergedApplied {
		ms.mergedApplied = act.MV
	}
	if w == nil && p.own(act) {
		if act.GID != 0 {
			if late, ok := ms.gidWaiters[act.GID]; ok {
				delete(ms.gidWaiters, act.GID)
				w = late
			} else {
				ms.doneGid[act.GID] = act.MV
			}
		} else {
			key := waitKey{act.Group, act.Index}
			if late, ok := ms.waiters[key]; ok {
				delete(ms.waiters, key)
				w = late
			} else {
				ms.doneIdx[key] = act.MV
			}
		}
		// Unconsumed done-records (commit responses lost in crashes)
		// would otherwise accumulate forever.
		if len(ms.doneIdx) > 8192 {
			ms.doneIdx = make(map[waitKey]uint64)
		}
		if len(ms.doneGid) > 8192 {
			ms.doneGid = make(map[uint64]uint64)
		}
	}
	ms.applied.Broadcast()
	ms.mu.Unlock()
	if w != nil {
		w.ch <- ownDone{mv: act.MV, viaHandle: viaHandle}
	}
}

// applyActions installs a drained run of merged actions and reports
// whether the store is still alive. An own entry whose client is
// waiting commits through the client's handle; any other own entry
// (its response was lost, or a pull delivered it first) installs from
// its writeset on its own. Runs of the other replicas' entries
// coalesce: one store transaction and one announce jump per run in
// the serial discipline, one scheduler entry per run when the
// replica's log syncs (one commit record, one fsync share).
func (p *Proxy) applyActions(acts []partition.Action) bool {
	if p.sched != nil {
		return p.scheduleActions(acts)
	}
	for i := 0; i < len(acts); {
		act := acts[i]
		if w := p.takeWaiter(act); w != nil {
			if !p.applyOwn(act, w) {
				return false
			}
			i++
			continue
		}
		j := i + 1
		if !p.own(act) {
			for j < len(acts) && !p.own(acts[j]) {
				j++
			}
		}
		run := acts[i:j]
		if !p.installRange(mergeRun(run), run[0].MV-1, run[len(run)-1].MV) {
			return false
		}
		if len(run) > 1 {
			p.addStat(func(st *Stats) { st.RemoteChunks++ })
		}
		for _, a := range run {
			p.afterApply(a, nil, false)
		}
		i = j
	}
	return true
}

// mergeRun unions the writesets of a run of consecutive actions (later
// writes win).
func mergeRun(run []partition.Action) *core.Writeset {
	if len(run) == 1 && run[0].WS != nil {
		return run[0].WS
	}
	merged := &core.Writeset{}
	for _, a := range run {
		if a.WS != nil {
			merged.Merge(a.WS)
		}
	}
	return merged
}

// applyOwn commits a waiting client transaction at its merged
// position on the serial path, through its own handle when possible
// (no re-execution), falling back to its writeset when the handle was
// killed or the database refused the commit (§8.1 soft recovery).
func (p *Proxy) applyOwn(act partition.Action, w *ownWait) bool {
	from, to := act.MV-1, act.MV
	if err := w.tx.CommitLabeled(from, to); err != nil {
		p.addStat(func(st *Stats) { st.SoftRecoveries++ })
		if !p.installRange(w.ws, from, to) {
			w.ch <- ownDone{err: errOwnAbandoned}
			return false
		}
		p.afterApply(act, w, false)
		return true
	}
	p.afterApply(act, w, true)
	return true
}

// scheduleActions hands a drained run to the parallel applier, in
// merged order. Own entries with a waiting client become handle
// entries: the client's transaction commits through CommitLabeledAsync
// at its merged position, concurrently with everything else in flight.
// Runs of the other replicas' entries coalesce into one entry when
// the replica's log syncs (group commit wants few records); otherwise
// every data entry stays separate so disjoint ones install in
// parallel, and only runs of hollow actions (fills, barriers, 2PC
// bookkeeping) coalesce into one announce entry.
func (p *Proxy) scheduleActions(acts []partition.Action) bool {
	coalesce := p.cfg.Store.SyncsCommits()
	var batch []*applyEntry
	for i := 0; i < len(acts); {
		act := acts[i]
		if w := p.takeWaiter(act); w != nil {
			// The handle now installs committed state: later installs
			// of its keys wait on its locks and must not kill it.
			p.markApplier(w.tx.ID(), true)
			e := &applyEntry{from: act.MV - 1, to: act.MV, ws: w.ws, own: w}
			e.done = func(applied bool) {
				p.markApplier(w.tx.ID(), false)
				if !applied {
					w.ch <- ownDone{err: errOwnAbandoned}
					return
				}
				p.afterApply(act, w, e.viaHandle)
			}
			batch = append(batch, e)
			i++
			continue
		}
		j := i + 1
		if !p.own(act) {
			for j < len(acts) && !p.own(acts[j]) && (coalesce || act.WS == nil && acts[j].WS == nil) {
				j++
			}
		}
		run := acts[i:j]
		ws := mergeRun(run)
		if ws.Empty() {
			ws = nil
		}
		batch = append(batch, &applyEntry{
			from: run[0].MV - 1, to: run[len(run)-1].MV, ws: ws,
			done: func(applied bool) {
				if !applied {
					return // store crashed; recovery replays the stream
				}
				for _, a := range run {
					p.afterApply(a, nil, false)
				}
			},
		})
		if len(run) > 1 && ws != nil {
			p.addStat(func(st *Stats) { st.RemoteChunks++ })
		}
		i = j
	}
	p.sched.submit(batch)
	return !p.sched.dead()
}

// waitOwn blocks a committing client until the merger reaches its
// entry, returning the merged commit version. forget withdraws the
// waiter when the wait is abandoned.
func (p *Proxy) waitOwn(t *Tx, w *ownWait, forget func()) (uint64, error) {
	timer := ownTimers.Get().(*time.Timer)
	timer.Reset(ownWaitTimeout)
	fired := false
	defer func() {
		if !fired && !timer.Stop() {
			<-timer.C
		}
		ownTimers.Put(timer)
	}()
	select {
	case d := <-w.ch:
		if d.err != nil {
			t.inner.Abort()
			return 0, d.err
		}
		if !d.viaHandle {
			t.inner.Abort()
		}
		return d.mv, nil
	case <-p.stopCh:
		forget()
		return 0, fmt.Errorf("%w: commit outcome unresolved: %w", ErrProxyClosed, mvstore.ErrCrashed)
	case <-timer.C:
		fired = true
		forget()
		return 0, fmt.Errorf("proxy: merged apply of own commit timed out")
	}
}

// ownTimers recycles waitOwn's timeout timers: a commit's wait almost
// never times out, and a fresh timer per commit is garbage on the
// hottest path. Pooled timers are stopped and drained.
var ownTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// commitSinglePartition is the fast path: one certification round
// against the owning group, then wait for the entry's merged apply.
// ctx bounds the certification round trip; a cancellation mid-certify
// leaves the outcome unknown to the caller, and the merger installs
// the writeset from the group's stream if it did commit (the entry is
// addressed by (group, index), so no hole results).
func (p *Proxy) commitSinglePartition(ctx context.Context, t *Tx, ws *core.Writeset, g int) error {
	ms := p.merge
	resp, err := ms.topo.Groups[g].CertifyCtx(ctx, certifier.Request{
		Origin:         p.cfg.ReplicaID,
		StartVersion:   t.startVec[g],
		ReplicaVersion: ms.frontier(g),
		WSBytes:        ws.Encode(nil),
		Deadline:       deadlineNano(ctx),
	})
	if err != nil {
		t.inner.Abort()
		return certError(err)
	}
	if !resp.Committed {
		p.ingest(g, resp.Remote)
		t.inner.Abort()
		p.addStat(func(st *Stats) { st.CertAborts++ })
		return ErrCertificationAbort
	}
	// Register the waiter and offer the own entry together with the
	// response's entries, in one critical section: the merger must never
	// meet this entry without its waiter, or it would install the
	// writeset a second time instead of committing the handle.
	key := waitKey{g, resp.CommitVersion}
	ms.mu.Lock()
	mv, done := ms.doneIdx[key]
	var w *ownWait
	if done {
		delete(ms.doneIdx, key) // a pull delivered and applied it first
	} else {
		w = &ownWait{tx: t.inner, ws: ws, ch: make(chan ownDone, 1)}
		ms.waiters[key] = w
		ms.asm.OfferEntry(g, resp.CommitVersion, certifier.Entry{
			Kind: core.KindData, Origin: p.cfg.ReplicaID, WS: ws,
		})
	}
	ms.offerLocked(g, resp.Remote)
	ms.mu.Unlock()
	p.touchRemote()
	ms.nudge()
	if done {
		t.inner.Abort()
	} else if mv, err = p.waitOwn(t, w, func() {
		ms.mu.Lock()
		if ms.waiters[key] == w {
			delete(ms.waiters, key)
		}
		ms.mu.Unlock()
	}); err != nil {
		return err
	}
	t.commitVersion = mv
	p.addStat(func(st *Stats) { st.Commits++ })
	return nil
}

// commitCrossPartition runs the ordered two-phase protocol: prepare
// in every involved group in ascending partition order (the canonical
// lock order), then resolve-commit each; replicas apply the union of
// the parts atomically at the first commit marker's merged position.
func (p *Proxy) commitCrossPartition(ctx context.Context, t *Tx, ws *core.Writeset, parts []partition.Part) error {
	ms := p.merge
	gid := uint64(p.cfg.ReplicaID)<<40 | (gidCounter.Add(1) & (1<<40 - 1))
	involved := make([]int, len(parts))
	for i, part := range parts {
		involved[i] = part.PID
	}

	// ctx is honored through phase 1 only: a cancellation while
	// preparing aborts the whole transaction (the abort decision is
	// delivered by the detached resolver, so no group's locks leak).
	// Once every prepare has acknowledged, the decision is commit and
	// the remaining work completes regardless of ctx.
	prepared := make([]int, 0, len(parts))
	for _, part := range parts {
		resp, err := ms.topo.Groups[part.PID].PrepareCtx(ctx, certifier.PrepareRequest{
			GID:          gid,
			Origin:       p.cfg.ReplicaID,
			StartVersion: t.startVec[part.PID],
			Involved:     involved,
			WSBytes:      part.WS.Encode(nil),
		})
		if err != nil || !resp.Prepared {
			// Abort the whole transaction. The failed group is included
			// in the resolve set: on a transport error its prepare may
			// have landed, and an abort marker for a never-prepared gid
			// is a harmless no-op.
			p.resolveDetached(gid, append(prepared, part.PID), false)
			t.inner.Abort()
			if err != nil {
				return fmt.Errorf("proxy: prepare in partition %d: %w", part.PID, certError(err))
			}
			p.addStat(func(st *Stats) { st.CertAborts++; st.CrossPartAborts++ })
			return ErrCertificationAbort
		}
		prepared = append(prepared, part.PID)
	}

	// Register the waiter before any marker can exist, then resolve.
	w := &ownWait{tx: t.inner, ws: ws, ch: make(chan ownDone, 1)}
	ms.mu.Lock()
	ms.gidWaiters[gid] = w
	ms.mu.Unlock()
	ms.nudge()

	if !p.resolveAll(gid, prepared, true) {
		// Some group is unreachable; a detached resolver keeps
		// retrying (the prepares are durable — the decision must
		// reach every group or its locks stay held).
		p.resolveDetached(gid, prepared, true)
	}

	mv, err := p.waitOwn(t, w, func() {
		ms.mu.Lock()
		delete(ms.gidWaiters, gid)
		ms.mu.Unlock()
	})
	if err != nil {
		return err
	}
	t.commitVersion = mv
	p.addStat(func(st *Stats) { st.Commits++; st.CrossPartCommits++ })
	return nil
}

// resolveAll sends the decision to each group in ascending order,
// reporting whether every group acknowledged it.
func (p *Proxy) resolveAll(gid uint64, pids []int, commit bool) bool {
	ok := true
	for _, pid := range pids {
		if _, err := p.merge.topo.Groups[pid].Resolve(certifier.ResolveRequest{GID: gid, Commit: commit}); err != nil {
			ok = false
		}
	}
	return ok
}

// resolveDetached completes the decision protocol in the background:
// it retries until every group has the marker. It touches only
// certifier clients (never the store), so it is safe across a
// simulated replica crash; it stops when the decision landed
// everywhere or the proxy shuts down. On shutdown an unresolved
// decision leaves the prepared groups' locks held — later conflicting
// certifications abort until a restarted coordinator re-resolves,
// which is legal (aborts, never a safety violation).
func (p *Proxy) resolveDetached(gid uint64, pids []int, commit bool) {
	groups := p.merge.topo.Groups
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		backoff := 5 * time.Millisecond
		pending := append([]int(nil), pids...)
		for len(pending) > 0 {
			var still []int
			for _, pid := range pending {
				if _, err := groups[pid].Resolve(certifier.ResolveRequest{GID: gid, Commit: commit}); err != nil {
					still = append(still, pid)
				}
			}
			pending = still
			if len(pending) == 0 {
				return
			}
			select {
			case <-p.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
	}()
}

// PullOnce fetches every group's stream forward once. Pulls include
// this replica's own entries: past the replica's frontier "own"
// entries exist only if their commit responses were lost (or the
// replica is rebuilding after a crash), and the merge cannot pass
// them without their data.
func (p *Proxy) PullOnce() error {
	_, err := p.pullAll()
	p.addStat(func(st *Stats) { st.StalenessPulls++ })
	return err
}

// pullAll pulls and ingests every group's stream once, returning the
// committed head each group reported (zero for a group whose pull
// failed) and the first error.
func (p *Proxy) pullAll() ([]uint64, error) {
	ms := p.merge
	heads := make([]uint64, len(ms.topo.Groups))
	var firstErr error
	for g, client := range ms.topo.Groups {
		resp, err := client.Pull(certifier.PullRequest{
			Origin: p.cfg.ReplicaID, ReplicaVersion: ms.frontier(g), IncludeOwn: true,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		heads[g] = resp.SystemVersion
		p.ingest(g, resp.Remote)
	}
	return heads, firstErr
}

// resyncTimeout bounds how long Resync waits for the merger to apply
// what it pulled.
const resyncTimeout = 30 * time.Second

// Resync catches the replica up to the certifier tier's committed
// head: it pulls every group's stream and waits until the merger has
// applied each group through the head that group reported. Used after
// crashes.
func (p *Proxy) Resync() error {
	p.addStat(func(st *Stats) { st.Resyncs++ })
	heads, err := p.pullAll()
	if err != nil {
		return err
	}
	var total uint64
	for _, h := range heads {
		total += h
	}
	if base := p.cfg.Store.AnnouncedVersion(); total < base {
		// A tier that knows less than we do — typically a freshly
		// elected leader whose commit index has not caught up with its
		// log (it cannot finalize a previous term's tail until an entry
		// of its own term commits). Treating its answer as success would
		// declare the replica caught up without fetching anything; fail
		// so the caller retries.
		return fmt.Errorf("proxy: resync answered at %d committed entries, behind our version %d", total, base)
	}
	ms := p.merge
	expired := false
	deadline := time.AfterFunc(resyncTimeout, func() {
		ms.mu.Lock()
		expired = true
		ms.applied.Broadcast()
		ms.mu.Unlock()
	})
	defer deadline.Stop()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for g := 0; g < len(heads); g++ {
		for ms.vector[g] < heads[g] {
			select {
			case <-p.stopCh:
				return ErrProxyClosed
			default:
			}
			if expired {
				return fmt.Errorf("proxy: resync stuck at merged version %d (group %d at %d of %d)",
					ms.mergedApplied, g, ms.vector[g], heads[g])
			}
			ms.applied.Wait()
		}
	}
	return nil
}
