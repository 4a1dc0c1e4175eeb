package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a run to a smoke test.
var tiny = options{
	seed:    7,
	measure: 300 * time.Millisecond,
	warmup:  100 * time.Millisecond,
	commits: 1500,
	setups:  1,
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(ms metricSet) map[string]bool {
	out := make(map[string]bool)
	for _, m := range ms {
		out[m.name] = true
	}
	return out
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced
// and traced, and checks that each run reports exactly the metrics
// BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layers := declared(t)
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Fatalf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			o := tiny
			o.spansDir = t.TempDir()
			out, err := benchmark(def, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			printed := names(out.metrics)
			for _, n := range e2e {
				if !printed[n] {
					t.Errorf("end-to-end metric %s not printed", n)
				}
			}
			reported := names(out.reported)
			for _, n := range layers {
				if !reported[n] {
					t.Errorf("per-layer metric %s not reported", n)
				}
			}
			if len(out.reported) != len(layers) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(out.reported), len(layers))
			}
		})
	}
}

// TestGateCatchesLostAck feeds the correctness gate an acknowledgement
// for a write no replica holds and expects it to fail.
func TestGateCatchesLostAck(t *testing.T) {
	def := lookup("allupdates-part4")
	sys, err := def.start()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := sys.populate(def.gen()); err != nil {
		t.Fatal(err)
	}
	ls := def.load(tiny, def.gen())
	lr, err := runLoad(ls, tiny.seed, sys.newBegin, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(sys.c, lr.clients); err != nil {
		t.Fatalf("gate failed on an honest run: %v", err)
	}

	// Pretend the last acknowledged write of one row had a value that
	// never reached any replica.
	var victim *client
	var k cell
	for _, c := range lr.clients {
		for kk := range c.acked {
			victim, k = c, kk
			break
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("load acknowledged no writes")
	}
	w := victim.acked[k]
	victim.acked[k] = ackedWrite{version: w.version + 1, value: []byte("never written")}
	err = verify(sys.c, lr.clients)
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("gate accepted a lost acknowledgement: %v", err)
	}
}
