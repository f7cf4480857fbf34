package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"fidr"
	"fidr/internal/core"
	"fidr/internal/engine"
	"fidr/internal/nic"
	"fidr/internal/proto"
	"fidr/internal/ssd"
	"fidr/internal/tablecache"
)

const (
	// rounds splits the timed region. The connections meet at a barrier
	// after each round, and the end-to-end rates and latency percentiles
	// are medians over rounds, so a burst of noise from outside the
	// process moves one round rather than the result.
	rounds = 10
	// setupRepeats is how many times a pass brings the stack up; setup_s
	// is the median, and only the last stack serves the workload.
	setupRepeats = 9
	// recoverRepeats is how many times a dropped durable volume is
	// recovered; durability.recover_s is the median.
	recoverRepeats = 3
	// readbackPerConn is the number of acknowledged LBAs per connection
	// read back after the timed region (and after recovery): enough
	// for a p99 with ten samples beyond it.
	readbackPerConn = 3000
	// readbackPasses is how many times the sample is read back over the
	// wire; read percentiles taken from the read-back are medians over
	// passes.
	readbackPasses = 9
)

// pass is one run of a workload over a fresh stack.
type pass struct {
	setup []float64 // seconds, one per bring-up
	wall  time.Duration
	// payload counts client bytes written and read in the timed region.
	payload uint64
	// Per round: duration, client payload bytes, frame latencies in ns
	// (send -> ack).
	rounds                  []time.Duration
	roundPayload            []uint64
	roundWrites, roundReads [][]int64
	readback                [][]int64 // ns per read, per pass of the post-run read-back
	attempted, failed       int64
	problems                []string

	stats      core.Stats
	cache      tablecache.Stats
	engine     engine.Stats
	nic        nic.Stats
	data       ssd.Stats
	table      ssd.Stats
	wal        core.WALStats
	dedupRatio float64

	allocBytes, gcCycles uint64
	cpu                  time.Duration
	recoveries           []float64 // seconds, durable volumes only
	attr                 attribution
	samples              map[string]int
}

func (p *pass) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runPass brings the stack up, drives the loads through it, checks the
// outputs and the recovered volume, and tears it down. A non-nil tracer
// records spans during the timed region.
func runPass(sp spec, loads []*load, sample [][]op, o options, t *tracer) (*pass, error) {
	dir, err := os.MkdirTemp(o.dir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{samples: map[string]int{}}

	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		// Every measured stretch starts from a collected heap, so the
		// garbage of the one before does not land in it.
		runtime.GC()
		start := time.Now()
		if st, err = startStack(sp, dir, t, o.fault); err != nil {
			return nil, err
		}
		c, err := proto.Dial(st.addr())
		if err != nil {
			st.close()
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		c.Close()
	}
	defer st.close()

	// The listener's Close waits for its connections, so they close first.
	conns := make([]*proto.Client, len(loads))
	closeConns := func() {
		for i, c := range conns {
			if c != nil {
				c.Close()
				conns[i] = nil
			}
		}
	}
	defer closeConns()
	for i := range conns {
		if conns[i], err = proto.Dial(st.addr()); err != nil {
			return nil, err
		}
	}
	// recs[r][i] is what connection i saw in round r.
	recs := make([][]clientRec, rounds)
	for r := range recs {
		recs[r] = make([]clientRec, len(loads))
		for i, l := range loads {
			recs[r][i].writeLat = make([]int64, 0, len(l.ops)/rounds+1)
			recs[r][i].readLat = make([]int64, 0, len(l.ops)/rounds+1)
		}
	}

	// Timed region: first send to the final flush ack. Dirty pages left
	// by earlier work are written back first, so that WAL fsyncs do not
	// wait for them.
	syscall.Sync()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if t != nil {
		t.on.Store(true)
	}
	t0 := time.Now()
	var flushErr error
	for r := range rounds {
		rs := time.Now()
		var wg sync.WaitGroup
		for i, l := range loads {
			n := len(l.ops)
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[r][i].drive(conns[i], l.ops[n*r/rounds:n*(r+1)/rounds], t, i)
			}()
		}
		wg.Wait()
		if r == rounds-1 {
			flushErr = st.async.Maintenance(func(s fidr.Store) error { return s.Flush() })
		}
		p.rounds = append(p.rounds, time.Since(rs))
	}
	tEnd := time.Now()
	if t != nil {
		t.on.Store(false)
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)

	p.wall = tEnd.Sub(t0)
	p.cpu = cpu1 - cpu0
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	if flushErr != nil {
		p.problemf("final flush: %v", flushErr)
	}
	p.roundPayload = make([]uint64, rounds)
	p.roundWrites = make([][]int64, rounds)
	p.roundReads = make([][]int64, rounds)
	var firstErr error
	for r, rr := range recs {
		for _, c := range rr {
			p.roundPayload[r] += c.payload
			p.roundWrites[r] = append(p.roundWrites[r], c.writeLat...)
			p.roundReads[r] = append(p.roundReads[r], c.readLat...)
			p.attempted += c.attempted
			p.failed += c.failed
			if firstErr == nil {
				firstErr = c.firstErr
			}
		}
		p.payload += p.roundPayload[r]
		p.samples["write_frames"] += len(p.roundWrites[r])
		p.samples["read_frames"] += len(p.roundReads[r])
	}
	if firstErr != nil {
		p.problemf("%d of %d requests failed or returned wrong bytes; first: %v", p.failed, p.attempted, firstErr)
	}
	if t != nil {
		p.attr = t.attribute(t0.Sub(t.epoch).Nanoseconds(), tEnd.Sub(t.epoch).Nanoseconds(), len(loads))
		if p.attr.unattributed < 0 {
			p.problemf("trace attribution double-counts %v", time.Duration(-p.attr.unattributed))
		}
	}

	// After the timed region: counters and the reduction ledger.
	if err := st.maintain(func() error {
		s := st.srv
		p.stats, p.cache, p.engine, p.nic = s.Stats(), s.CacheStats(), s.EngineStats(), s.NICStats()
		p.data, p.table, p.wal = s.DataSSDStats(), s.TableSSDStats(), s.WALStats()
		return nil
	}); err != nil {
		return nil, err
	}
	if o.fault == "ledger" {
		p.stats.StoredBytes += chunkSize
	}
	if err := checkLedger(p.stats); err != nil {
		p.problemf("%v", err)
	}
	if n := p.stats.DuplicateChunks + p.stats.UniqueChunks; n > 0 {
		p.dedupRatio = float64(p.stats.DuplicateChunks) / float64(n)
	}

	// Read back acknowledged LBAs over the wire, every connection its own
	// sample at once.
	runtime.GC()
	for range readbackPasses {
		reads := make([]sampleReads, len(conns))
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reads[i] = readSample(sample[i], c.ReadChunk)
			}()
		}
		wg.Wait()
		var lat []int64
		for _, r := range reads {
			lat = append(lat, r.lat...)
			p.count(r, "read-back")
		}
		p.readback = append(p.readback, lat)
		p.samples["readback_reads"] += len(lat)
	}
	closeConns()

	// fsck.
	var rep core.VerifyReport
	if err := st.maintain(func() (err error) { rep, err = st.srv.Verify(); return err }); err != nil {
		p.problemf("verify: %v", err)
	} else if !rep.OK() {
		p.problemf("verify: %d problems; first: %s", len(rep.Problems), rep.Problems[0])
	}

	// Durability: drop the server without a checkpoint, recover it from
	// the volume files and the WAL, and require the same sample
	// byte-exact and a clean fsck.
	if !sp.durable {
		return p, nil
	}
	if err := st.drop(); err != nil {
		p.problemf("drop: %v", err)
		return p, nil
	}
	var rec *core.Server
	for range recoverRepeats {
		rec = nil
		runtime.GC()
		srv, d, err := st.recoverServer()
		if err != nil {
			p.problemf("recover: %v", err)
			return p, nil
		}
		rec = srv
		p.recoveries = append(p.recoveries, d.Seconds())
	}
	for _, sm := range sample {
		p.count(readSample(sm, rec.Read), "after recovery")
	}
	if rep, err := rec.Verify(); err != nil {
		p.problemf("verify after recovery: %v", err)
	} else if !rep.OK() {
		p.problemf("verify after recovery: %d problems; first: %s", len(rep.Problems), rep.Problems[0])
	}
	return p, nil
}

// sampleReads is the outcome of reading a sample back.
type sampleReads struct {
	lat    []int64 // ns per read
	failed int64   // errors or wrong bytes
	first  error
}

// readSample reads every sampled LBA through read.
func readSample(sample []op, read func(lba uint64) ([]byte, error)) sampleReads {
	r := sampleReads{lat: make([]int64, 0, len(sample))}
	for _, rd := range sample {
		s := time.Now()
		got, err := read(rd.lba)
		r.lat = append(r.lat, time.Since(s).Nanoseconds())
		if err == nil && !bytes.Equal(got, rd.want) {
			err = fmt.Errorf("lba %d: wrong bytes", rd.lba)
		}
		if err != nil {
			r.failed++
			if r.first == nil {
				r.first = err
			}
		}
	}
	return r
}

// count adds a sample read's attempts and failures to p.
func (p *pass) count(r sampleReads, what string) {
	p.attempted += int64(len(r.lat))
	p.failed += r.failed
	if r.first != nil {
		p.problemf("%s: %d of %d reads failed; first: %v", what, r.failed, len(r.lat), r.first)
	}
}

// checkLedger requires the reduction ledger to balance after a flush.
func checkLedger(s core.Stats) error {
	if sum := s.DedupSavedBytes + s.CompressionSavedBytes + s.StoredBytes; s.LogicalWriteBytes != sum {
		return fmt.Errorf("ledger: logical %d != dedup-saved %d + compression-saved %d + stored %d",
			s.LogicalWriteBytes, s.DedupSavedBytes, s.CompressionSavedBytes, s.StoredBytes)
	}
	return nil
}

// clientRec is what one closed-loop connection saw.
type clientRec struct {
	writeLat, readLat []int64
	payload           uint64
	attempted, failed int64
	firstErr          error
}

// drive sends ops one frame at a time, waiting for each ack, and checks
// every read against the bytes the connection last wrote there.
func (r *clientRec) drive(c *proto.Client, ops []op, t *tracer, conn int) {
	var frame []byte
	for _, o := range ops {
		if len(o.chunks) > 1 {
			frame = frame[:0]
			for _, ch := range o.chunks {
				frame = append(frame, ch...)
			}
		}
		var got []byte
		var err error
		s := time.Now()
		switch {
		case o.read:
			got, err = c.ReadChunk(o.lba)
		case len(o.chunks) == 1:
			err = c.WriteChunk(o.lba, o.chunks[0])
		default:
			err = c.WriteBatch(o.lba, frame)
		}
		e := time.Now()
		if t != nil {
			t.add(conn, lvlFrame, ival{s: s.Sub(t.epoch).Nanoseconds(), e: e.Sub(t.epoch).Nanoseconds()})
		}
		r.attempted++
		if o.read {
			r.readLat = append(r.readLat, e.Sub(s).Nanoseconds())
			if err == nil && !bytes.Equal(got, o.want) {
				err = fmt.Errorf("read lba %d: wrong bytes", o.lba)
			}
		} else {
			r.writeLat = append(r.writeLat, e.Sub(s).Nanoseconds())
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		if o.read {
			r.payload += uint64(len(got))
		} else {
			r.payload += uint64(len(o.chunks) * chunkSize)
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

// pct is the nearest-rank q-th percentile of ns samples, in µs.
func pct(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q/100*float64(len(s))+0.999999) - 1
	return float64(s[min(max(i, 0), len(s)-1)]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// endToEndMetrics are the client-visible metrics of an untraced pass.
func endToEndMetrics(p *pass) map[string]metric {
	tput := make([]float64, rounds)
	for i, d := range p.rounds {
		tput[i] = float64(p.roundPayload[i]) / 1e6 / d.Seconds()
	}
	gb := float64(p.payload) / 1e9
	return map[string]metric{
		"setup_s":              {median(p.setup), "s"},
		"throughput_mbps":      {median(tput), "MB/s"},
		"write_p50_us":         {roundPct(p.roundWrites, 50), "us"},
		"read_p50_us":          {roundPct(p.reads(), 50), "us"},
		"stored_per_logical":   {float64(p.stats.StoredBytes) / float64(max(p.stats.LogicalWriteBytes, 1)), "ratio"},
		"alloc_bytes_per_byte": {float64(p.allocBytes) / float64(max(p.payload, 1)), "B/B"},
		"cpu_s_per_gb":         {p.cpu.Seconds() / gb, "s/GB"},
	}
}

// tails are the p99 frame latencies of a pass, in µs. They swing with
// the host from run to run by more than any bound the benchmark may set,
// so they are reported beside the gated metrics, not among them.
func tails(p *pass) (write, read float64) {
	return roundPct(p.roundWrites, 99), roundPct(p.reads(), 99)
}

// reads are the read latencies per round; a workload without reads in
// its timed region uses the post-run read-back passes.
func (p *pass) reads() [][]int64 {
	if p.samples["read_frames"] == 0 {
		return p.readback
	}
	return p.roundReads
}

// roundPct is the median over rounds of each round's q-th percentile.
// When a round is too small to leave ten samples above the percentile,
// the rounds are pooled instead.
func roundPct(rs [][]int64, q float64) float64 {
	var all []int64
	var per []float64
	for _, r := range rs {
		all = append(all, r...)
		per = append(per, pct(r, q))
		if float64(len(r))*(1-q/100) < 10 {
			per = nil
			break
		}
	}
	if per == nil {
		return pct(all, q)
	}
	return median(per)
}

// layerMetrics are the per-layer metrics of a traced pass; base is the
// untraced pass over the same inputs, for the tracing overhead.
func layerMetrics(base, p *pass) map[string]metric {
	a := p.attr
	sec := func(ns int64) metric { return metric{float64(ns) / 1e9, "s"} }
	us := func(ns []int64, q float64) metric { return metric{pct(ns, q), "us"} }
	count := func(n uint64) metric { return metric{float64(n), "count"} }
	ratio := func(num, den uint64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(num) / float64(den), "ratio"}
	}
	writeP99, readP99 := tails(base)
	return map[string]metric{
		"client.write_p99_us": {writeP99, "us"},
		"client.read_p99_us":  {readP99, "us"},

		"proto.self_us_p50":     us(a.frameSelf, 50),
		"proto.frames":          count(uint64(a.frames)),
		"proto.bytes_per_frame": {float64(p.payload) / float64(max(a.frames, 1)), "B"},
		"proto.self_s":          sec(a.proto),

		"async.wait_us_p50": us(a.protoWait, 50),
		"async.wait_us_p99": us(a.protoWait, 99),
		"async.wait_s":      sec(a.async),

		"core.write_self_us_p50": us(a.coreWriteSelf, 50),
		"core.write_self_us_p99": us(a.coreWriteSelf, 99),
		"core.read_self_us_p50":  us(a.coreReadSelf, 50),
		"core.read_self_us_p99":  us(a.coreReadSelf, 99),
		"core.self_s":            sec(a.core),
		"core.busy_s":            sec(a.coreBusy),
		"core.flush_s":           sec(a.flush),
		"core.batches":           count(p.stats.BatchesProcessed),
		"core.dedup_ratio":       {p.dedupRatio, "ratio"},

		"blockcomp.compress_calls":  count(uint64(len(a.leafDur[leafCompress]))),
		"blockcomp.compress_us_p50": us(a.leafDur[leafCompress], 50),
		"blockcomp.compress_busy_s": sec(a.compressBusy),
		"blockcomp.compress_s":      sec(a.leaves[leafCompress]),
		"engine.compression_ratio":  {p.engine.CompressionRatio(), "ratio"},

		"blockcomp.decompress_calls":  count(uint64(len(a.leafDur[leafDecompress]))),
		"blockcomp.decompress_us_p50": us(a.leafDur[leafDecompress], 50),
		"blockcomp.decompress_s":      sec(a.leaves[leafDecompress]),

		"wal.write_us_p50":      us(a.leafDur[leafWALWrite], 50),
		"wal.write_s":           sec(a.leaves[leafWALWrite]),
		"wal.fsync_us_p50":      us(a.leafDur[leafFsync], 50),
		"wal.fsync_us_p99":      us(a.leafDur[leafFsync], 99),
		"wal.fsync_s":           sec(a.leaves[leafFsync]),
		"wal.fsyncs":            count(p.wal.Syncs),
		"wal.records_per_fsync": ratio(p.wal.AppendedRecords, p.wal.Syncs),

		"nic.hash_ops":        count(p.nic.HashOps),
		"nic.duplicate_drops": count(p.nic.DuplicateDrops),
		"nic.read_hits":       count(p.nic.ReadHits),

		"tablecache.hit_rate":  {p.cache.HitRate(), "ratio"},
		"tablecache.misses":    count(p.cache.Misses),
		"tablecache.evictions": count(p.cache.Evictions),
		"ssd.table.read_ios":   count(p.table.ReadIOs),

		"ssd.data.write_bytes": {float64(p.data.WriteBytes), "B"},
		"ssd.data.write_ios":   count(p.data.WriteIOs),
		"ssd.data.read_ios":    count(p.data.ReadIOs),

		"runtime.gc_cycles": count(p.gcCycles),

		"durability.recover_s": sec(int64(median(p.recoveries) * 1e9)),

		"trace.overhead_pct":   {(p.wall.Seconds()/base.wall.Seconds() - 1) * 100, "%"},
		"trace.wall_s":         sec(a.wall),
		"trace.unattributed_s": sec(a.unattributed),
	}
}
