package main

import (
	"runtime/metrics"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/cluster"
	tmetrics "tashkent/internal/metrics"
	"tashkent/internal/mvstore"
	"tashkent/internal/paxos"
	"tashkent/internal/proxy"
	"tashkent/internal/replica"
	"tashkent/internal/simdisk"
)

// metric is one named figure of a run, with its unit and the number
// of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// metricSet keeps metrics in the order they were added.
type metricSet []metric

func (m *metricSet) add(name, unit string, value float64, n int) {
	*m = append(*m, metric{name, unit, value, n})
}

// pct adds the q-quantile of xs (microseconds) as a *_us metric.
func (m *metricSet) pct(name string, xs []float64, q float64) {
	m.add(name, "us", quantile(xs, q), len(xs))
}

// runtimeNames are the runtime/metrics samples a run reads.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// counters is a snapshot of every counter the packages export.
type counters struct {
	proxy    []proxy.Stats
	store    []mvstore.Stats
	logDisk  []simdisk.Stats
	cert     []certifier.Stats // per group leader
	certDisk []simdisk.Stats   // per group leader, since the load began
	batch    []tmetrics.DistSummary
	queue    []certifier.QueueStats
	apply    []proxy.ApplyStats
	rt       []float64
	cpu      time.Duration
}

// leaders returns each certifier group's current leader.
func leaders(c *cluster.Cluster) []*certifier.Server {
	var out []*certifier.Server
	for g := 0; g < c.Groups(); g++ {
		if l := c.GroupLeader(g); l != nil {
			out = append(out, l)
		}
	}
	return out
}

func snapshot(c *cluster.Cluster) counters {
	var s counters
	for i := 0; i < c.Replicas(); i++ {
		r := c.Replica(i)
		s.proxy = append(s.proxy, r.Proxy().Stats())
		s.store = append(s.store, r.Store().Stats())
		s.logDisk = append(s.logDisk, r.LogDisk().Stats())
		s.apply = append(s.apply, r.Proxy().ApplyStats())
	}
	for _, l := range leaders(c) {
		s.cert = append(s.cert, l.Stats())
		s.certDisk = append(s.certDisk, l.DiskStats())
		s.batch = append(s.batch, l.BatchStats())
		s.queue = append(s.queue, l.QueueStats())
	}
	s.rt = readRuntime()
	s.cpu = processCPU()
	return s
}

// counterLayers derives the per-layer metrics that come from exported
// counters, over the load between before and after. Leaders had their
// activity stats reset when the load began, so disk, batch and queue
// figures in after already cover just the load.
func counterLayers(m *metricSet, before, after counters, ls loadStats, loadDur time.Duration, rec replica.RecoveryReport) {
	upd := float64(ls.loadUpdateAttempts)
	commits := float64(ls.loadUpdates)
	perK := func(x int64, base float64) float64 { return 1000 * ratio(float64(x), base) }

	var st mvstore.Stats
	for i := range after.store {
		st.WriteConflicts += after.store[i].WriteConflicts - before.store[i].WriteConflicts
		st.Kills += after.store[i].Kills - before.store[i].Kills
	}
	m.add("mvstore.write_conflicts_per_ktx", "count", perK(st.WriteConflicts, upd), ls.loadUpdateAttempts)
	m.add("mvstore.kills_per_ktx", "count", perK(st.Kills, upd), ls.loadUpdateAttempts)

	var ps proxy.Stats
	for i := range after.proxy {
		a, b := after.proxy[i], before.proxy[i]
		ps.LocalCertAborts += a.LocalCertAborts - b.LocalCertAborts
		ps.CertAborts += a.CertAborts - b.CertAborts
		ps.EagerKills += a.EagerKills - b.EagerKills
		ps.Resyncs += a.Resyncs - b.Resyncs
		ps.RemoteApplied += a.RemoteApplied - b.RemoteApplied
	}
	m.add("proxy.local_cert_aborts_per_ktx", "count", perK(ps.LocalCertAborts, upd), ls.loadUpdateAttempts)
	m.add("proxy.cert_aborts_per_ktx", "count", perK(ps.CertAborts, upd), ls.loadUpdateAttempts)
	m.add("proxy.eager_kills_per_ktx", "count", perK(ps.EagerKills, upd), ls.loadUpdateAttempts)
	m.add("proxy.resyncs", "count", float64(ps.Resyncs), len(after.proxy))

	var lagP50, lagP99 float64
	var lagN, parN int
	var parSum, parCount int64
	for _, a := range after.apply {
		if a.Lag.Count > 0 {
			lagP50 += float64(a.Lag.P50) / 1e3
			lagP99 = max(lagP99, float64(a.Lag.P99)/1e3)
			lagN++
		}
		parSum += a.Parallelism.Sum
		parCount += a.Parallelism.Count
		parN += int(a.Parallelism.Count)
	}
	m.add("apply.lag_p50_us", "us", ratio(lagP50, float64(lagN)), lagN)
	m.add("apply.lag_p99_us", "us", lagP99, lagN)
	m.add("apply.parallelism_mean", "count", ratio(float64(parSum), float64(parCount)), parN)

	var cs certifier.Stats
	var fsyncs, records int64
	var busy float64
	var waitP99 float64
	for i := range after.cert {
		if i >= len(before.cert) {
			break
		}
		cs.Requests += after.cert[i].Requests - before.cert[i].Requests
		cs.Aborts += after.cert[i].Aborts - before.cert[i].Aborts
		cs.RemoteShipped += after.cert[i].RemoteShipped - before.cert[i].RemoteShipped
		fsyncs += after.certDisk[i].Fsyncs
		records += after.certDisk[i].RecordsSynced
		busy += float64(after.certDisk[i].Busy) / float64(loadDur)
		waitP99 = max(waitP99, float64(after.queue[i].Wait.P99)/1e3)
	}
	batch := tmetrics.MergeDist(after.batch...)
	m.add("certifier.batch_mean", "count", batch.Mean, int(batch.Count))
	m.add("certifier.queue_wait_p99_us", "us", waitP99, int(cs.Requests))
	m.add("certifier.abort_share", "ratio", ratio(float64(cs.Aborts), float64(cs.Requests)), int(cs.Requests))
	m.add("certifier.ship_useful_ratio", "ratio", ratio(float64(ps.RemoteApplied), float64(cs.RemoteShipped)), int(cs.RemoteShipped))
	m.add("wal.cert_fsyncs_per_kcommit", "count", perK(fsyncs, commits), ls.loadUpdates)
	m.add("wal.cert_records_per_fsync", "count", ratio(float64(records), float64(fsyncs)), int(fsyncs))
	m.add("wal.cert_busy_frac", "ratio", ratio(busy, float64(len(after.certDisk))), len(after.certDisk))

	var rf, rr int64
	for i := range after.logDisk {
		rf += after.logDisk[i].Fsyncs - before.logDisk[i].Fsyncs
		rr += after.logDisk[i].RecordsSynced - before.logDisk[i].RecordsSynced
	}
	m.add("wal.replica_fsyncs_per_kcommit", "count", perK(rf, commits), ls.loadUpdates)
	m.add("wal.replica_records_per_fsync", "count", ratio(float64(rr), float64(rf)), int(rf))

	m.add("replica.recover_writesets", "count", float64(rec.WritesetsApplied), 1)
	m.add("replica.recover_dump_bytes", "bytes", float64(rec.DumpBytes), 1)

	txs := float64(ls.loadCommitted)
	gc, total := after.rt[0]-before.rt[0], after.rt[1]-before.rt[1]
	m.add("runtime.gc_cpu_frac", "ratio", ratio(gc, total), 1)
	m.add("runtime.alloc_bytes_per_tx", "bytes", ratio(after.rt[2]-before.rt[2], txs), ls.loadCommitted)
	m.add("runtime.allocs_per_tx", "count", ratio(after.rt[3]-before.rt[3], txs), ls.loadCommitted)
}

// spanLayers derives the per-layer metrics of a traced load from its
// spans.
func spanLayers(m *metricSet, clients []*client, rpcs []rpcSpan, ls loadStats, groups int) {
	var begin, read, write, commit []float64
	for _, c := range clients {
		for _, s := range c.spans {
			d := float64(s.end-s.start) / 1e3
			switch s.kind {
			case spanBegin:
				begin = append(begin, d)
			case spanRead:
				read = append(read, d)
			case spanWrite:
				write = append(write, d)
			case spanCommitUpdate:
				commit = append(commit, d)
			}
		}
	}
	m.pct("session.begin_p50_us", begin, 0.5)
	m.pct("session.begin_p99_us", begin, 0.99)
	m.pct("mvstore.read_p50_us", read, 0.5)
	m.pct("mvstore.write_p50_us", write, 0.5)
	m.pct("proxy.commit_p50_us", commit, 0.5)
	m.pct("proxy.commit_p99_us", commit, 0.99)
	m.pct("proxy.commit_self_p50_us", commitSelf(clients, rpcs), 0.5)

	var certify, certifyTail, appendLat []float64
	var pulls, fills, appends, msgs int
	var appendBytes, allBytes int64
	for _, s := range rpcs {
		d := float64(s.end-s.start) / 1e3
		msgs++
		allBytes += int64(s.bytes)
		switch s.method {
		case certifier.MethodCertify:
			certify = append(certify, d)
			if s.start >= ls.tailStart {
				certifyTail = append(certifyTail, d)
			}
		case certifier.MethodPull:
			pulls++
		case certifier.MethodFill:
			fills++
		case paxos.MethodAppend:
			appends++
			appendBytes += int64(s.bytes)
			appendLat = append(appendLat, d)
		}
	}
	commits := float64(ls.loadUpdates)
	m.pct("certifier.certify_rpc_p50_us", certify, 0.5)
	m.pct("certifier.certify_rpc_p99_us", certify, 0.99)
	m.pct("certifier.certify_rpc_tail_p50_us", certifyTail, 0.5)
	m.pct("certifier.certify_self_p50_us", certifySelf(rpcs), 0.5)
	m.add("certifier.pull_rpcs_per_kcommit", "count", 1000*ratio(float64(pulls), commits), pulls)
	m.pct("paxos.append_rpc_p50_us", appendLat, 0.5)
	m.add("paxos.append_rpcs_per_commit", "count", ratio(float64(appends), commits), appends)
	m.add("paxos.bytes_per_commit", "bytes", ratio(float64(appendBytes), commits), appends)
	m.add("transport.msgs_per_commit", "count", ratio(float64(msgs), commits), msgs)
	m.add("transport.bytes_per_commit", "bytes", ratio(float64(allBytes), commits), msgs)
	if groups < 2 {
		// The classic system has no partition layer.
		fills, pulls = 0, 0
	}
	m.add("partition.fill_rpcs_per_kcommit", "count", 1000*ratio(float64(fills), commits), fills)
	m.add("partition.pull_rpcs_per_kcommit", "count", 1000*ratio(float64(pulls), commits), pulls)
}
