// Command perfbench is the repository's commit-path benchmark. It runs
// one of four closed-loop workloads against an in-memory cluster,
// checks that every replica converged and kept every acknowledged
// write, and prints its metrics: the end-to-end ones by default, the
// per-layer ones of a separate traced run with --trace 1. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload steady-mw --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"tashkent/internal/cluster"
	"tashkent/internal/replica"
)

// recoveries is how many replica crashes a run recovers from, taking
// the replicas round-robin; recover_s is their median.
const recoveries = 3

// A failover with no commit by failoverLimit fails the run.
const failoverLimit = 10 * time.Second

// watchdog bounds one invocation.
const watchdog = 170 * time.Second

// steadyCommits is steady-mw's fixed commit count: enough that the
// certifier history passes 100k entries.
const steadyCommits = 100_000

// endToEnd names the metrics a --trace 0 run reports in its JSON
// line: those that exist, are never zero, and repeat within their
// bound on every workload. The others are printed for reading; see
// README.md.
var endToEnd = []string{
	"setup_s", "commit_tps", "tail_commit_tps", "update_p50_ms",
	"commit_ratio", "live_heap_mb", "cpu_ms_per_tx",
}

func main() {
	name := flag.String("workload", "", "workload: steady-mw, tpcb-api, tpcw-session or allupdates-part4")
	seed := flag.Int64("seed", 1, "seed of the generated transactions")
	seconds := flag.Int("seconds", 10, "measurement window of the time-based workloads, in seconds")
	trace := flag.Int("trace", 0, "1: run untraced and traced, and report the per-layer metrics")
	flag.Parse()
	capProcs()

	def := lookup(*name)
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of steady-mw, tpcb-api, tpcw-session, allupdates-part4), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	o := options{
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		warmup:   time.Second,
		commits:  steadyCommits,
		setups:   3,
		spansDir: ".bench_build",
	}
	fmt.Printf("env %s workload=%s seed=%d\n", readEnvironment("."), def.name, o.seed)
	// A run must end: a stuck run reports where every goroutine waits.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v; goroutines:\n", def.name, watchdog)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(1)
	})
	out, err := benchmark(def, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		if out != nil && out.incorrect {
			printResult(out.attempted, out.failed, false, nil)
		}
		os.Exit(1)
	}
	for _, m := range out.metrics {
		fmt.Printf("metric %-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	printResult(out.attempted, out.failed, true, out.reported)
}

// output is what one invocation reports.
type output struct {
	metrics           metricSet // everything, for the readable report
	reported          metricSet // the JSON subset
	attempted, failed int
	incorrect         bool // the correctness gate failed
}

// benchmark runs the workload once (untraced) or twice (untraced, then
// traced) and assembles the report.
func benchmark(def *workloadDef, o options, traced bool) (*output, error) {
	if traced {
		o.setups = 1
	}
	plain, err := execute(def, o, false)
	if err != nil {
		return plain.failure(), err
	}
	out := &output{metrics: plain.e2e, attempted: plain.ls.attempted, failed: plain.ls.failed}
	if !traced {
		out.reported = pick(plain.e2e, endToEnd)
		return out, nil
	}
	tr, err := execute(def, o, true)
	if err != nil {
		return tr.failure(), err
	}
	layers := append(metricSet{}, plain.layers...)
	layers = append(layers, tr.layers...)
	layers.add("trace.overhead_commit_tps", "ratio",
		1-ratio(get(tr.e2e, "commit_tps"), get(plain.e2e, "commit_tps")), 2)
	layers.add("trace.overhead_update_p50", "ratio",
		ratio(get(tr.e2e, "update_p50_ms"), get(plain.e2e, "update_p50_ms"))-1, 2)
	out.metrics = append(out.metrics, layers...)
	out.reported = layers
	return out, nil
}

func get(ms metricSet, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func pick(ms metricSet, names []string) metricSet {
	var out metricSet
	for _, n := range names {
		for _, m := range ms {
			if m.name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

// printResult prints the JSON result line.
func printResult(attempted, failed int, correct bool, ms metricSet) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	fmt.Println(string(b))
}

// runOut is one execution of a workload.
type runOut struct {
	ls        loadStats
	e2e       metricSet
	layers    metricSet
	incorrect bool
}

// failure turns a failed execution into the report's failure fields.
func (r *runOut) failure() *output {
	if r == nil {
		return nil
	}
	return &output{attempted: r.ls.attempted, failed: r.ls.failed, incorrect: r.incorrect}
}

// execute sets the system up o.setups times, keeps the last, drives
// the load, crashes and recovers replicas, fails the certifier leader
// of group 0 over, and checks the outcome.
func execute(def *workloadDef, o options, traced bool) (*runOut, error) {
	var sys *system
	var setup []float64
	for k := 0; k < o.setups; k++ {
		t0 := time.Now()
		s, err := def.start()
		if err == nil {
			err = s.populate(def.gen())
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if k < o.setups-1 {
			s.close()
			continue
		}
		sys = s
	}
	defer sys.close()
	c := sys.c

	ls := def.load(o, def.gen())
	for _, l := range leaders(c) {
		l.ResetActivityStats()
	}
	before := snapshot(c)
	epoch := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(epoch)
		c.Fabric().SetInterposer(tr)
	}
	steal := startSteal()
	lr, err := runLoad(ls, o.seed, sys.newBegin, tr, epoch)
	if err != nil {
		return nil, err
	}
	after := snapshot(c)
	stealShare := steal.share()
	if traced {
		c.Fabric().SetInterposer(nil)
	}
	loadDur := time.Duration(lr.loadEnd)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st := lr.summarize()
	out := &runOut{ls: st}
	if err := lr.firstErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d transactions failed; first: %v\n", st.failed, st.attempted, err)
	}

	// Crash and recover replicas round-robin, then fail the certifier
	// leader of group 0 over.
	var recoverS []float64
	var rec replica.RecoveryReport
	for k := 0; k < recoveries; k++ {
		i := k % c.Replicas()
		runtime.GC()
		c.CrashReplica(i)
		t0 := time.Now()
		r, err := c.RecoverReplica(i)
		if err != nil {
			return out, fmt.Errorf("recovering replica %d: %w", i, err)
		}
		recoverS = append(recoverS, time.Since(t0).Seconds())
		if k == 0 {
			rec = r
		}
	}
	fo := newClient()
	failoverS, err := failover(c, fo)
	if err != nil {
		out.incorrect = true
		return out, err
	}
	all := append(append([]*client{}, lr.clients...), sys.populated, fo)
	if err := verify(c, all); err != nil {
		out.incorrect = true
		return out, fmt.Errorf("correctness: %w", err)
	}
	e := &out.e2e
	win := st.window.Seconds()
	e.add("setup_s", "s", median(setup), len(setup))
	e.add("commit_tps", "1/s", ratio(float64(st.updates), win), st.updates)
	e.add("head_commit_tps", "1/s", st.headTPS, st.tailCount)
	e.add("tail_commit_tps", "1/s", st.tailTPS, st.tailCount)
	e.add("update_p50_ms", "ms", quantile(st.updateLat, 0.5), len(st.updateLat))
	e.add("update_p99_ms", "ms", quantile(st.updateLat, 0.99), len(st.updateLat))
	if st.reads > 0 { // only tpcw-session has read-only transactions
		e.add("read_tps", "1/s", ratio(float64(st.reads), win), st.reads)
		e.add("read_p50_ms", "ms", quantile(st.readLat, 0.5), len(st.readLat))
		e.add("read_p99_ms", "ms", quantile(st.readLat, 0.99), len(st.readLat))
	}
	e.add("commit_ratio", "ratio", ratio(float64(st.updates), float64(st.updateAttempts)), st.updateAttempts)
	e.add("abort_ratio", "ratio", ratio(float64(st.aborted), float64(st.updateAttempts)), st.updateAttempts)
	e.add("error_ratio", "ratio", ratio(float64(st.failedInWindow), float64(st.updateAttempts+st.reads)), st.updateAttempts+st.reads)
	e.add("live_heap_mb", "MB", float64(mem.HeapAlloc)/(1<<20), 1)
	e.add("cpu_ms_per_tx", "ms", ratio(float64(after.cpu-before.cpu)/1e6, float64(st.loadCommitted)), st.loadCommitted)
	e.add("recover_s", "s", median(recoverS), len(recoverS))
	e.add("failover_s", "s", failoverS, 1)
	e.add("steal_share", "ratio", stealShare, 1)

	if traced {
		spanLayers(&out.layers, lr.clients, tr.rpcSpans(), st, c.Groups())
		path := filepath.Join(o.spansDir, "spans-"+def.name+".csv")
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			return out, err
		}
		if err := writeSpans(path, lr.clients, tr.rpcSpans()); err != nil {
			return out, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		counterLayers(&out.layers, before, after, st, loadDur, rec)
	}
	return out, nil
}

// failover crashes group 0's certifier leader, retries one commit on
// replica 0, on a key group 0 owns, until one is acknowledged, and
// returns the time from the crash. Each attempt writes a fresh key, so
// an attempt whose outcome was lost cannot be mistaken for the
// acknowledged one.
//
// If nothing commits within failoverLimit, the cluster has lost
// liveness (see README.md, "Known behaviour"): the run prints a
// goroutine dump to stderr and fails.
func failover(c *cluster.Cluster, fo *client) (float64, error) {
	leader := c.GroupLeaderIndex(0)
	if leader < 0 {
		return 0, fmt.Errorf("failover: group 0 has no leader")
	}
	begin := clusterBegin(c)(0, 0)
	probe := func(key string) error {
		inner, err := begin(false)
		if err != nil {
			return err
		}
		t := &trackedTx{inner: inner, c: fo}
		if err := t.Update("failover", key, map[string][]byte{"v": []byte(key)}); err != nil {
			t.Abort()
			return err
		}
		return t.Commit(context.Background())
	}
	runtime.GC()
	c.CrashCertifier(leader)
	t0 := time.Now()
	// stop ends the retry loop when the run gives up; done carries the
	// loop's outcome and is buffered so the loop never blocks on it.
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		var err error
		for attempt := 0; !stop.Load(); attempt++ {
			if err = probe(groupZeroKey(c, "failover", attempt)); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		done <- err
	}()
	limit := time.NewTimer(failoverLimit)
	defer limit.Stop()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("failover: %w", err)
		}
		return time.Since(t0).Seconds(), nil
	case <-limit.C:
		stop.Store(true)
		fmt.Fprintf(os.Stderr, "perfbench: failover: no commit %v after crashing certifier %d; goroutines:\n", failoverLimit, leader)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return 0, fmt.Errorf("failover: no commit within %v of the leader crash", failoverLimit)
	}
}
