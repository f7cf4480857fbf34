package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// small runs a workload on a few thousand requests per connection.
func small(t *testing.T, workload string, trace bool, fault string) result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		dir: t.TempDir(), reqs: 3000, fault: fault,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestMetricsMatchBenchmarkJSON runs every workload clean, untraced and
// traced, and checks the printed metrics against BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			res := small(t, w.Name, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, res.problems)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json has %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				sum := 0.0
				for _, n := range []string{"proto.self_s", "async.wait_s", "core.self_s",
					"blockcomp.compress_s", "blockcomp.decompress_s", "wal.write_s",
					"wal.fsync_s", "trace.unattributed_s"} {
					sum += res.Metrics[n].Value
				}
				if wall := res.Metrics["trace.wall_s"].Value; sum < wall-1e-6 || sum > wall+1e-6 {
					t.Errorf("%s: layer self times + unattributed = %v, wall = %v", w.Name, sum, wall)
				}
			}
		}
	}
}

// TestInjectedFaultsFail proves each correctness check fails the run.
func TestInjectedFaultsFail(t *testing.T) {
	for _, tc := range []struct{ workload, fault, want string }{
		{"mixed-4k", "read", "wrong bytes"},
		{"ingest-4k", "read", "read-back"},
		{"ingest-4k", "store", "verify"},
		{"backup-durable", "store", "verify"},
		{"ingest-4k", "ledger", "ledger"},
	} {
		res := small(t, tc.workload, false, tc.fault)
		if res.Correct {
			t.Errorf("%s with fault %q: run reported correct", tc.workload, tc.fault)
			continue
		}
		if !strings.Contains(strings.Join(res.problems, "\n"), tc.want) {
			t.Errorf("%s with fault %q: no %q problem in %v", tc.workload, tc.fault, tc.want, res.problems)
		}
		if tc.fault == "read" && res.Failed == 0 {
			t.Errorf("%s with fault %q: failed = 0", tc.workload, tc.fault)
		}
	}
}

// TestAttribution checks the split of wall time on hand-made spans: two
// connections, overlapping compress lanes, a WAL fsync, and a flush.
func TestAttribution(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	// Connection 0: one frame [0,100) holding a proto span [10,90) holding
	// a core span [20,80), which holds compress lanes [30,50) and [40,60)
	// and an fsync [65,70).
	tr.add(0, lvlFrame, ival{s: 0, e: 100})
	tr.add(0, lvlProto, ival{s: 10, e: 90})
	tr.add(0, lvlCore, ival{s: 20, e: 80})
	tr.add(0, lvlLeaf, ival{s: 30, e: 50, kind: leafCompress})
	tr.add(0, lvlLeaf, ival{s: 40, e: 60, kind: leafCompress})
	tr.add(0, lvlLeaf, ival{s: 65, e: 70, kind: leafFsync})
	// Connection 1: a read frame [0,50) with proto [5,45) and core [15,35)
	// holding a decompress [20,30), then nothing until the flush.
	tr.add(1, lvlFrame, ival{s: 0, e: 50})
	tr.add(1, lvlProto, ival{s: 5, e: 45})
	tr.add(1, lvlCore, ival{s: 15, e: 35, kind: 1})
	tr.add(1, lvlLeaf, ival{s: 20, e: 30, kind: leafDecompress})
	// The flush [100,120) compresses for [105,110).
	tr.add(flushConn, lvlCore, ival{s: 100, e: 120})
	tr.add(flushConn, lvlLeaf, ival{s: 105, e: 110, kind: leafCompress})

	a := tr.attribute(0, 120, 2)
	if a.wall != 120 {
		t.Fatalf("wall = %d", a.wall)
	}
	// Sums over connections, halved: proto (20+10)/2, async (20+20)/2,
	// core (25+10)/2 + flush 15, compress 30/2 + 5, fsync 5/2,
	// decompress 10/2.
	checks := []struct {
		name      string
		got, want int64
	}{
		{"proto", a.proto, 15},
		{"async", a.async, 20},
		{"core", a.core, 17 + 15},
		{"compress", a.leaves[leafCompress], 15 + 5},
		{"fsync", a.leaves[leafFsync], 2},
		{"decompress", a.leaves[leafDecompress], 5},
		{"flush", a.flush, 20},
		{"frames", int64(a.frames), 2},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	sum := a.proto + a.async + a.core + a.unattributed
	for _, v := range a.leaves {
		sum += v
	}
	if sum != a.wall || a.unattributed < 0 {
		t.Errorf("self times + unattributed %d = %d, wall %d", a.unattributed, sum, a.wall)
	}
}
