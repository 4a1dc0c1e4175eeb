package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
	"tashkent/internal/paxos"
	"tashkent/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanBegin        spanKind = iota + 1 // workload begin: session routing + causal wait, or proxy Begin
	spanRead                             // Tx.Read / Tx.ReadCol
	spanWrite                            // Tx.Update / Tx.Insert
	spanCommit                           // Tx.Commit of a read-only transaction
	spanCommitUpdate                     // Tx.Commit of an update transaction
)

var spanNames = map[spanKind]string{
	spanBegin: "begin", spanRead: "read", spanWrite: "write",
	spanCommit: "commit_ro", spanCommitUpdate: "commit",
}

// txSpan is one call on a client transaction; spans of one
// transaction share tx.
type txSpan struct {
	tx         uint64
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// rpcSpan is one RPC on the in-memory fabric. tx is the transaction
// whose commit issued it (certify calls only), 0 otherwise.
type rpcSpan struct {
	tx               uint64
	method, from, to string
	start, end       int64
	bytes            int
}

// tracer keeps spans in memory for one traced load. Client spans live
// in each client's own buffer; RPC spans arrive from every goroutine
// and go through mu.
type tracer struct {
	epoch time.Time

	mu   sync.Mutex
	rpcs []rpcSpan
	// committing maps the first item a committing transaction wrote
	// to the transaction, so a certify RPC can name its commit.
	committing map[core.ItemID]uint64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, committing: make(map[core.ItemID]uint64)}
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// commitStarted and commitEnded bracket the commit of transaction tx,
// whose first write was to item.
func (tr *tracer) commitStarted(item core.ItemID, tx uint64) {
	tr.mu.Lock()
	tr.committing[item] = tx
	tr.mu.Unlock()
}

func (tr *tracer) commitEnded(item core.ItemID) {
	tr.mu.Lock()
	delete(tr.committing, item)
	tr.mu.Unlock()
}

// Call implements transport.Interposer: it times every RPC and counts
// its bytes in both directions. A certify request names its commit by
// the first item of its writeset.
func (tr *tracer) Call(from, to, method string, req []byte, deliver func() ([]byte, error)) ([]byte, error) {
	var first core.ItemID
	if method == certifier.MethodCertify {
		var r certifier.Request
		if transport.DecodeMessage(req, &r) == nil {
			if ws, _, err := core.DecodeWriteset(r.WSBytes); err == nil && len(ws.Ops) > 0 {
				first = core.ItemID{Table: ws.Ops[0].Table, Key: ws.Ops[0].Key}
			}
		}
	}
	start := time.Now()
	resp, err := deliver()
	end := time.Now()
	s := rpcSpan{method: method, from: from, to: to, start: tr.since(start), end: tr.since(end), bytes: len(req) + len(resp)}
	tr.mu.Lock()
	if first.Key != "" {
		s.tx = tr.committing[first]
	}
	tr.rpcs = append(tr.rpcs, s)
	tr.mu.Unlock()
	return resp, err
}

// rpcSpans returns the recorded RPC spans.
func (tr *tracer) rpcSpans() []rpcSpan {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.rpcs
}

// writeSpans writes every span as CSV (source,tx,name,from,to,
// start_ns,end_ns,bytes) once the run has ended.
func writeSpans(path string, clients []*client, rpcs []rpcSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "source,tx,name,from,to,start_ns,end_ns,bytes")
	for i, c := range clients {
		for _, s := range c.spans {
			fmt.Fprintf(w, "client-%d,%d,%s,,,%d,%d,0\n", i, s.tx, spanNames[s.kind], s.start, s.end)
		}
	}
	for _, s := range rpcs {
		fmt.Fprintf(w, "fabric,%d,%s,%s,%s,%d,%d,%d\n", s.tx, s.method, s.from, s.to, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitSelf returns, per update commit span, its duration minus the
// certify RPCs it issued (its child spans), in microseconds.
func commitSelf(clients []*client, rpcs []rpcSpan) []float64 {
	child := make(map[uint64]int64)
	for _, s := range rpcs {
		if s.tx != 0 {
			child[s.tx] += s.end - s.start
		}
	}
	var out []float64
	for _, c := range clients {
		for _, s := range c.spans {
			if s.kind != spanCommitUpdate {
				continue
			}
			d := s.end - s.start
			if ch, ok := child[s.tx]; ok {
				out = append(out, float64(d-min(ch, d))/1e3)
			}
		}
	}
	return out
}

// certifySelf returns, per certify RPC, its duration minus the part of
// it covered by paxos.append RPCs the receiving certifier sent to its
// peers meanwhile — the replication round that one batch shares.
func certifySelf(rpcs []rpcSpan) []float64 {
	appends := make(map[string][]rpcSpan) // by sending node
	for _, s := range rpcs {
		if s.method == paxos.MethodAppend {
			appends[s.from] = append(appends[s.from], s)
		}
	}
	maxDur := make(map[string]int64)
	for node, as := range appends {
		sort.Slice(as, func(i, j int) bool { return as[i].start < as[j].start })
		for _, a := range as {
			maxDur[node] = max(maxDur[node], a.end-a.start)
		}
	}
	var out []float64
	for _, s := range rpcs {
		if s.method != certifier.MethodCertify {
			continue
		}
		as := appends[s.to]
		// Appends that can overlap [s.start, s.end] start no earlier
		// than s.start minus the longest append.
		i := sort.Search(len(as), func(i int) bool { return as[i].start >= s.start-maxDur[s.to] })
		var covered, reach int64
		reach = s.start
		for ; i < len(as) && as[i].start < s.end; i++ {
			lo, hi := max(as[i].start, reach), min(as[i].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.end-s.start-covered)/1e3)
	}
	return out
}
