// Command e2ebench is the repository's end-to-end benchmark. It brings
// up the fidrd stack in-process (proto listener over the async front over
// a core server, fidrd's defaults), drives it over loopback TCP with
// closed-loop clients, checks every output, and prints the client-visible
// metrics; with -trace 1 it prints per-layer metrics from a traced run
// instead. See README.md for the workloads and metric definitions.
//
//	e2ebench -workload ingest-4k -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// commit is stamped by run.sh (-ldflags "-X main.commit=...").
var commit = "unknown"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	// reqs overrides the requests per connection (0 = seconds*reqPerSec).
	reqs int
	// fault injects a defect for the benchmark's own tests: "read"
	// corrupts read payloads on the server side, "store" corrupts chunk
	// contents before compression, "ledger" unbalances the observed
	// reduction ledger.
	fault string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists every failed correctness check.
	problems []string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "ingest-4k", "workload: ingest-4k, mixed-4k or backup-durable")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal run length; sizes the fixed request count")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build/run", "scratch directory for volume files")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench: incorrect output:\n  %s\n", strings.Join(res.problems, "\n  "))
		os.Exit(1)
	}
}

// run generates the inputs, runs the workload and returns its result.
// Human-readable lines (machine facts, every metric with its unit, the
// sample counts) go to w.
func run(o options, w io.Writer) (result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return result{}, err
	}
	reqs := o.reqs
	if reqs == 0 {
		reqs = o.seconds * sp.reqPerSec
	}
	loads, err := buildLoads(sp, o.seed, reqs)
	if err != nil {
		return result{}, err
	}
	sample := sampleLBAs(loads, o.seed, readbackPerConn)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}

	var res result
	p, err := runPass(sp, loads, sample, o, nil)
	if err != nil {
		return result{}, err
	}
	var traced *pass
	if o.trace {
		if traced, err = runPass(sp, loads, sample, o, newTracer()); err != nil {
			return result{}, err
		}
	}
	for _, q := range []*pass{p, traced} {
		if q == nil {
			continue
		}
		res.Attempted += q.attempted
		res.Failed += q.failed
		res.problems = append(res.problems, q.problems...)
	}
	res.Correct = len(res.problems) == 0
	if o.trace {
		res.Metrics = layerMetrics(p, traced)
	} else {
		res.Metrics = endToEndMetrics(p)
	}

	writeP99, readP99 := tails(p)
	roundS := make([]float64, len(p.rounds))
	for i, d := range p.rounds {
		roundS[i] = d.Seconds()
	}
	var writes, reads, distinct int
	for _, l := range loads {
		writes += l.writeChunks
		reads += l.readChunks
		distinct += l.distinct
	}
	facts := map[string]any{
		"workload": sp.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"connections": sp.conns, "write_chunks": writes, "read_chunks": reads,
		"generated_dedup_ratio": 1 - float64(distinct)/float64(max(writes, 1)),
		"measured_dedup_ratio":  p.dedupRatio,
		"tablecache_hit_rate":   p.cache.HitRate(),
		"failed_op_ratio":       float64(res.Failed) / float64(max(res.Attempted, 1)),
		"samples":               p.samples,
		"wall_s":                p.wall.Seconds(),
		"round_s":               roundS,
		"write_p99_us":          writeP99,
		"read_p99_us":           readP99,
		"recover_s_each":        p.recoveries,
		"max_rss_mb":            maxRSS() >> 20,
	}
	fb, err := json.Marshal(facts)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "# facts %s\n", fb)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, pr := range res.problems {
		fmt.Fprintf(w, "# FAIL %s\n", pr)
	}
	return res, nil
}
