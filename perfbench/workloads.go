package main

import (
	"context"
	"fmt"
	"time"

	"tashkent"
	"tashkent/internal/cluster"
	"tashkent/internal/core"
	"tashkent/internal/partition"
	"tashkent/internal/proxy"
	"tashkent/internal/simdisk"
	"tashkent/internal/workload"
)

// systemSeed fixes the system's own randomness (disk jitter, election
// timeouts). It is a property of the system under test, not an input:
// --seed varies only the generated transactions.
const systemSeed = 1

// paperDisks is the paper's 8 ms-fsync disk at 1/10 latency, the
// harness's default scale.
var paperDisks = simdisk.Paper().Scaled(10)

// execTime is the simulated replica-side execution time of the
// disk-bound workloads: 5x the scaled fsync latency, the harness
// default that reproduces the paper's per-replica offered load.
var execTime = 5 * paperDisks.FsyncLatency

// options fixes one run's shape; tests shrink it.
type options struct {
	seed     int64
	measure  time.Duration // window of the time-based workloads
	warmup   time.Duration
	commits  int // committed updates of the fixed-size workload
	setups   int // set-ups per run; setup_s is their median
	spansDir string
}

// system is a started, populated and converged cluster.
type system struct {
	c        *cluster.Cluster
	newBegin func(rep, cl int) beginFunc
	// populated holds the acknowledged writes of the initial load.
	populated *client
}

func (s *system) close() { s.c.Close() }

// workloadDef is one benchmark workload.
type workloadDef struct {
	name  string
	start func() (*system, error)
	gen   func() workload.Generator
	load  func(o options, gen workload.Generator) loadSpec
}

// proxyTx adapts a proxy transaction to the context-aware commit.
type proxyTx struct{ *proxy.Tx }

func (t proxyTx) Commit(ctx context.Context) error { return t.CommitCtx(ctx) }

// clusterBegin opens every client's transactions directly on its
// replica; the client index is irrelevant.
func clusterBegin(c *cluster.Cluster) func(rep, cl int) beginFunc {
	return func(rep, _ int) beginFunc {
		return func(bool) (txn, error) {
			t, err := c.Begin(rep)
			if err != nil {
				return nil, err
			}
			return proxyTx{t}, nil
		}
	}
}

// sessionBegin gives every client its own session, routed by
// least-in-flight over the shared per-replica counters.
func sessionBegin(db *tashkent.DB) func(rep, cl int) beginFunc {
	return func(int, int) beginFunc {
		s := db.Session(tashkent.WithPolicy(tashkent.LeastInFlight()))
		return func(readOnly bool) (txn, error) {
			var opts []tashkent.TxOption
			if readOnly {
				opts = append(opts, tashkent.ReadOnly())
			}
			t, err := s.Begin(context.Background(), opts...)
			if err != nil {
				return nil, err
			}
			return t, nil
		}
	}
}

// startCluster starts a cluster with the settings every workload
// shares.
func startCluster(cfg cluster.Config) (*system, error) {
	cfg.Certifiers = 3
	cfg.LocalCertification = true
	cfg.EagerPreCert = true
	cfg.LockTimeout = 5 * time.Second
	cfg.OrderTimeout = 10 * time.Second
	cfg.Seed = systemSeed
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &system{c: c, newBegin: clusterBegin(c)}, nil
}

// populate loads the generator's initial rows through replica group 0
// with tracked transactions, then converges every replica.
func (s *system) populate(gen workload.Generator) error {
	s.populated = newClient()
	begin := s.newBegin(0, 0)
	err := gen.Populate(context.Background(), func(_ context.Context, readOnly bool) (workload.Tx, error) {
		inner, err := begin(readOnly)
		if err != nil {
			return nil, err
		}
		return &trackedTx{inner: inner, c: s.populated}, nil
	})
	if err != nil {
		s.close()
		return fmt.Errorf("populate: %w", err)
	}
	if err := s.c.ConvergeAll(30 * time.Second); err != nil {
		s.close()
		return fmt.Errorf("converge after populate: %w", err)
	}
	return nil
}

// TPC-B sizing: the harness's paper sizing, 4 branches per replica.
const (
	tpcbReplicas = 4
	tpcbBranches = 4 * tpcbReplicas
	tpcbAccounts = 200
)

var workloads = []*workloadDef{
	{
		// The only workload where costs that grow with commit history
		// dominate: a fixed commit count takes the certifier log past
		// 100k entries over a 1024-row live set.
		name: "steady-mw",
		start: func() (*system, error) {
			return startCluster(cluster.Config{Mode: proxy.TashkentMW, Replicas: 1, IOProfile: simdisk.Instant()})
		},
		gen: func() workload.Generator { return &workload.AllUpdates{RowsPerClient: 64} },
		load: func(o options, gen workload.Generator) loadSpec {
			return loadSpec{gen: gen, replicas: 1, clients: 16, commits: o.commits}
		},
	},
	{
		// Real write-write conflicts, ordered replica commits sharing
		// fsyncs, and every replica applying the others' writesets.
		name: "tpcb-api",
		start: func() (*system, error) {
			return startCluster(cluster.Config{Mode: proxy.TashkentAPI, Replicas: tpcbReplicas,
				IOProfile: paperDisks, DedicatedIO: true, ApplyWorkers: 8})
		},
		gen: func() workload.Generator {
			return &workload.TPCB{Branches: tpcbBranches, AccountsPerBranch: tpcbAccounts}
		},
		load: func(o options, gen workload.Generator) loadSpec {
			return loadSpec{gen: gen, replicas: tpcbReplicas, clients: 8, execTime: execTime,
				warmup: o.warmup, measure: o.measure}
		},
	},
	{
		// Read-dominant through the public session API; the certifier
		// is nearly idle.
		name: "tpcw-session",
		start: func() (*system, error) {
			db, err := tashkent.Start(tashkent.Config{Mode: tashkent.ModeTashkentMW, Replicas: 2,
				DiskProfile: paperDisks, Seed: systemSeed})
			if err != nil {
				return nil, err
			}
			return &system{c: db.Cluster(), newBegin: sessionBegin(db)}, nil
		},
		gen: func() workload.Generator { return &workload.TPCW{} },
		load: func(o options, gen workload.Generator) loadSpec {
			return loadSpec{gen: gen, replicas: 2, clients: 8, execTime: execTime,
				warmup: o.warmup, measure: o.measure}
		},
	},
	{
		// The only workload through the partitioned pipeline: per-group
		// logs, the assembler merge and fills.
		name: "allupdates-part4",
		start: func() (*system, error) {
			return startCluster(cluster.Config{Mode: proxy.TashkentMW, Replicas: 2, Partitions: 4,
				IOProfile: paperDisks, DedicatedIO: true, ApplyWorkers: 8})
		},
		gen: func() workload.Generator { return &workload.AllUpdates{RowsPerClient: 64} },
		load: func(o options, gen workload.Generator) loadSpec {
			return loadSpec{gen: gen, replicas: 2, clients: 8, execTime: execTime,
				warmup: o.warmup, measure: o.measure}
		},
	},
}

func lookup(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// groupZeroKey returns a key of table that certifier group 0 owns, so
// the failover probe waits for the group whose leader crashed.
func groupZeroKey(c *cluster.Cluster, table string, attempt int) string {
	m := partition.Map{N: c.Groups()}
	for i := attempt * 1000; ; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if m.Of(core.ItemID{Table: table, Key: key}) == 0 {
			return key
		}
	}
}
