package partition

import (
	"fmt"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
)

// Topology is what a partitioned replica needs to reach the certifier
// tier: the partition map and one failover client per group.
type Topology struct {
	Map    Map
	Groups []*certifier.Client
}

// Action is one step of the merged apply order. MV is the merged
// version the step announces; exactly one Action exists per committed
// entry of every group, so merged versions are dense across the
// cluster and identical on every replica.
//
// WS is nil for steps that install nothing (fill/barrier no-ops,
// prepares, duplicate or abort markers): the replica just announces
// MV. For a data entry WS is its writeset; for the first commit
// marker of a cross-partition transaction WS is the union of all its
// prepared parts, applied atomically at the marker's merged version.
type Action struct {
	MV     uint64
	Group  int
	Index  uint64
	Origin int
	// GID is nonzero when this action commits a cross-partition
	// transaction (the union-applying first commit marker).
	GID uint64
	WS  *core.Writeset
}

// gidState accumulates a cross-partition transaction's parts until
// its first commit marker emits, then tombstones it until every
// involved group's marker has passed.
type gidState struct {
	parts    map[int]*core.Writeset
	origin   int
	involved []int
	done     bool // first decision marker emitted (applied or aborted)
	markers  int
}

// Assembler rebuilds the single merged apply order from N per-group
// committed streams. The merge rule is pure bookkeeping: the next
// entry is the one with the smallest (next index, group id) pair, so
// any two replicas that have the same per-group prefixes emit the
// same merged order. Not safe for concurrent use; callers serialize.
type Assembler struct {
	n        int
	next     []uint64                     // per-group next index to emit
	frontier []uint64                     // per-group highest contiguous index received
	buf      []map[uint64]certifier.Entry // received, unemitted entries
	gids     map[uint64]*gidState
	merged   uint64 // merged versions emitted so far

	blockGroup int // group Next is stalled on (-1 = none)
	blockIndex uint64
}

// NewAssembler returns an empty assembler over n groups.
func NewAssembler(n int) *Assembler {
	a := &Assembler{
		n:          n,
		next:       make([]uint64, n),
		frontier:   make([]uint64, n),
		buf:        make([]map[uint64]certifier.Entry, n),
		gids:       make(map[uint64]*gidState),
		blockGroup: -1,
	}
	for g := range a.next {
		a.next[g] = 1
		a.buf[g] = make(map[uint64]certifier.Entry)
	}
	return a
}

// Offer feeds one committed entry of group g at the given log index,
// as its raw payload. Duplicates and already-emitted indexes are
// ignored.
func (a *Assembler) Offer(g int, index uint64, raw []byte) error {
	if g < 0 || g >= a.n {
		return fmt.Errorf("partition: offer to group %d of %d", g, a.n)
	}
	if index < a.next[g] {
		return nil // already emitted
	}
	if _, dup := a.buf[g][index]; dup {
		return nil
	}
	e, err := certifier.DecodeLogEntry(raw)
	if err != nil {
		return fmt.Errorf("partition: group %d index %d: %w", g, index, err)
	}
	a.OfferEntry(g, index, e)
	return nil
}

// OfferEntry is Offer for an already decoded entry — a replica offers
// its own committed transaction straight from the certification
// response. Prepare parts register immediately on receipt (not on
// emission): a commit marker in a fast group may reach its merge
// position long before the slow group's prepare entry does, and the
// union must not wait for the prepare's own — much later — merge
// position.
func (a *Assembler) OfferEntry(g int, index uint64, e certifier.Entry) {
	if index < a.next[g] {
		return // already emitted
	}
	if _, dup := a.buf[g][index]; dup {
		return
	}
	a.buf[g][index] = e
	for {
		if _, ok := a.buf[g][a.frontier[g]+1]; !ok {
			break
		}
		a.frontier[g]++
	}
	if e.Kind == core.KindPrepare {
		a.registerPart(g, e)
	}
}

// Resume positions a fresh assembler after a prefix applied elsewhere:
// group g's stream continues at index vector[g]+1, and the merged
// count is the prefix's length. Every emitted action consumes exactly
// one entry of one group, so that length is the sum of the vector.
func (a *Assembler) Resume(vector []uint64) {
	a.merged = 0
	for g, v := range vector {
		a.next[g] = v + 1
		a.frontier[g] = v
		a.merged += v
	}
}

func (a *Assembler) registerPart(g int, e certifier.Entry) {
	st := a.gids[e.GID]
	if st == nil {
		st = &gidState{parts: make(map[int]*core.Writeset)}
		a.gids[e.GID] = st
	}
	if st.done {
		return // decision already emitted; late part is irrelevant
	}
	if st.parts[g] == nil {
		st.parts[g] = e.WS
	}
	st.origin = e.Origin
	if len(st.involved) == 0 {
		st.involved = e.Involved
	}
}

// Pending reports whether any received entry is still waiting to be
// emitted — i.e. whether running the merge forward could make
// progress that matters to this replica.
func (a *Assembler) Pending() bool {
	for g := range a.buf {
		if len(a.buf[g]) > 0 {
			return true
		}
	}
	return false
}

// Frontier returns the highest contiguous log index received from
// group g — the ReplicaVersion a pull for more of g's stream should
// carry.
func (a *Assembler) Frontier(g int) uint64 { return a.frontier[g] }

// MergedVersion returns how many merged versions have been emitted.
func (a *Assembler) MergedVersion() uint64 { return a.merged }

// Vector returns the per-group emitted counts (the replica's position
// in each group's version space). The returned slice is a copy.
func (a *Assembler) Vector() []uint64 {
	v := make([]uint64, a.n)
	for g := range v {
		v[g] = a.next[g] - 1
	}
	return v
}

// Blocking reports what the last failed Next is waiting for: a group
// and the log index the replica must receive from it. Valid only
// after Next returned ok == false.
func (a *Assembler) Blocking() (group int, index uint64) {
	return a.blockGroup, a.blockIndex
}

// Next emits the next action of the merged order, or ok == false if
// the required entry (or a required cross-partition part) has not
// been received yet — Blocking then says what to pull.
func (a *Assembler) Next() (Action, bool) {
	// The next entry globally is the smallest (next index, group id).
	g := 0
	for i := 1; i < a.n; i++ {
		if a.next[i] < a.next[g] {
			g = i
		}
	}
	idx := a.next[g]
	e, ok := a.buf[g][idx]
	if !ok {
		a.blockGroup, a.blockIndex = g, idx
		return Action{}, false
	}

	act := Action{MV: a.merged + 1, Group: g, Index: idx, Origin: e.Origin}
	switch e.Kind {
	case core.KindData:
		if !e.WS.Empty() {
			act.WS = e.WS
		}
	case core.KindPrepare:
		// Registered at Offer time; its merge position announces only.
	case core.KindCommitMarker:
		st := a.gids[e.GID]
		if st == nil {
			// A commit marker implies this group prepared the gid, and
			// the same-group prepare (lower index) has already been
			// offered and registered. Reaching here means the streams
			// are corrupt; fail safe by treating it as a no-op rather
			// than diverging.
			break
		}
		if !st.done {
			for _, pid := range st.involved {
				if st.parts[pid] == nil {
					// The union is not assembled yet: the missing part
					// is committed in group pid's log (phase 1 finished
					// before any marker was proposed), just not received
					// — pull that group forward.
					a.blockGroup, a.blockIndex = pid, a.frontier[pid]+1
					return Action{}, false
				}
			}
			union := &core.Writeset{}
			for _, pid := range st.involved {
				union.Merge(st.parts[pid])
			}
			act.WS = union
			act.GID = e.GID
			act.Origin = st.origin
			st.done = true
			st.parts = nil
		}
		st.markers++
		if st.markers >= len(st.involved) && len(st.involved) > 0 {
			delete(a.gids, e.GID)
		}
	case core.KindAbortMarker:
		if st := a.gids[e.GID]; st != nil {
			st.done = true
			st.parts = nil
			st.markers++
			if st.markers >= len(st.involved) && len(st.involved) > 0 {
				delete(a.gids, e.GID)
			}
		}
	}

	delete(a.buf[g], idx)
	a.next[g] = idx + 1
	a.merged++
	a.blockGroup, a.blockIndex = -1, 0
	return act, true
}
