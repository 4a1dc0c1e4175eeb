package main

import (
	"bytes"
	"fmt"
	"time"

	"tashkent/internal/cluster"
)

// mergeAcked folds every client's acknowledged writes into one map:
// per cell, the value of the highest-versioned acknowledged commit.
func mergeAcked(clients []*client) map[cell]ackedWrite {
	out := make(map[cell]ackedWrite)
	for _, c := range clients {
		for k, w := range c.acked {
			if old, ok := out[k]; !ok || w.version >= old.version {
				out[k] = w
			}
		}
	}
	return out
}

// verify is the correctness gate of a run: every replica converges to
// the certifier's committed version with an identical state
// fingerprint, and every acknowledged write reads back at its last
// acknowledged value on every replica.
func verify(c *cluster.Cluster, clients []*client) error {
	if err := c.ConvergeAll(60 * time.Second); err != nil {
		return fmt.Errorf("convergence: %w", err)
	}
	fps := c.Fingerprints()
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			return fmt.Errorf("replica state fingerprints differ: %08x", fps)
		}
	}
	want := mergeAcked(clients)
	for i := 0; i < c.Replicas(); i++ {
		if err := readBack(c, i, want); err != nil {
			return err
		}
	}
	return nil
}

// readBack reads every acknowledged cell on replica i in one snapshot.
func readBack(c *cluster.Cluster, i int, want map[cell]ackedWrite) error {
	tx, err := c.Begin(i)
	if err != nil {
		return fmt.Errorf("read-back on replica %d: %w", i, err)
	}
	defer tx.Abort()
	var bad int
	var first string
	for k, w := range want {
		got, ok, err := tx.ReadCol(k.table, k.key, k.col)
		if err != nil {
			return fmt.Errorf("read-back on replica %d: %w", i, err)
		}
		if !ok || !bytes.Equal(got, w.value) {
			if bad == 0 {
				first = fmt.Sprintf("%s/%s.%s = %q (found %v), acknowledged %q at version %d",
					k.table, k.key, k.col, got, ok, w.value, w.version)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("replica %d lost %d of %d acknowledged writes; first: %s", i, bad, len(want), first)
	}
	return nil
}
