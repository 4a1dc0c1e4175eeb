package proxy

import (
	"errors"

	"tashkent/internal/core"
	"tashkent/internal/mvstore"
)

// installRange installs a writeset as one labeled commit covering
// merged versions (from, to], retrying until it lands: the merged
// stream is the replica's ground truth and cannot be skipped. Failed
// attempts are transient — lock conflicts with doomed local
// transactions, database-side commit rejections — and each retry (the
// §8.1 soft-recovery loop) first waits for the range's predecessors to
// publish, so conflicting locks drain. Only a store crash or the
// proxy's shutdown stops it; it reports whether the range landed.
func (p *Proxy) installRange(ws *core.Writeset, from, to uint64) bool {
	p.markInFlight(ws, true)
	defer p.markInFlight(ws, false)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-p.stopCh:
				return false
			default:
			}
			p.addStat(func(st *Stats) { st.SoftRecoveries++ })
			p.cfg.Store.WaitAnnounced(from, p.cfg.ChunkWaitTimeout)
		}
		p.killConflictingLocals(ws)
		err := p.installOnce(ws, from, to)
		if err == nil {
			return true
		}
		if errors.Is(err, mvstore.ErrCrashed) {
			return false
		}
	}
}

// installOnce is one serial install attempt.
func (p *Proxy) installOnce(ws *core.Writeset, from, to uint64) error {
	if ws.Empty() {
		// Versions that install nothing (barriers, fills, 2PC entries):
		// the announce chain must still advance through them or every
		// later version would wait forever.
		p.cfg.Store.SetAnnounced(to)
		return nil
	}
	tx, err := p.cfg.Store.Begin()
	if err != nil {
		return err
	}
	p.markApplier(tx.ID(), true)
	defer p.markApplier(tx.ID(), false)
	if err := tx.ApplyWriteset(ws); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.CommitLabeled(from, to); err != nil {
		tx.Abort()
		return err
	}
	return nil
}
