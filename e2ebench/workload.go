package main

import (
	"fmt"
	"math/rand"
	"sort"

	"fidr/internal/blockcomp"
	"fidr/internal/trace"
)

// chunkSize is the stack's chunk size (fidr.DefaultConfig).
const chunkSize = 4096

// lbaShift partitions the LBA space between connections: connection c
// writes and reads only LBAs in [c<<lbaShift, (c+1)<<lbaShift). The
// generators' address spaces (4 Mi blocks) fit well inside one partition.
const lbaShift = 32

// spec is one workload: a trace skeleton, how it reaches the wire, and
// the nominal request rate that sizes a run.
type spec struct {
	name string
	// params is the repository's trace skeleton for the workload.
	params func(ios int) trace.Params
	// conns is the number of closed-loop client connections.
	conns int
	// batch is the largest WriteBatch frame in chunks; 1 sends every
	// write as its own WriteChunk frame.
	batch int
	// durable attaches file-backed data and table volumes and a WAL
	// file, as fidrd -data-file -table-file -wal-file does.
	durable bool
	// reqPerSec is the nominal request rate per connection on a 2-CPU
	// box. A run issues seconds*reqPerSec requests per connection, so
	// every commit does the same work for a seed.
	reqPerSec int
}

var specs = []spec{
	// Write-H: 88% dedup with reuse inside the table cache. Only ~12% of
	// chunks are compressed and nothing is read or fsynced, so per-request
	// costs dominate: proto framing, async queueing, hashing.
	{name: "ingest-4k", params: trace.WriteH, conns: 2, batch: 1, reqPerSec: 12000},
	// Read-Mixed: the ingest-4k writes plus 50% reads of LBAs the client
	// wrote, exercising LBA resolve, data-SSD reads and decompression
	// beside the write path. A write-path gain that costs reads shows here.
	// One connection: with two, a read waits behind the other connection's
	// batch about 0.8% of the time, so read p99 sits on that knee and
	// swings with scheduling noise from run to run.
	{name: "mixed-4k", params: trace.ReadMixed, conns: 1, batch: 1, reqPerSec: 20000},
	// Archival: 55% dedup with far reuse that overflows the table cache,
	// sequential runs sent as WriteBatch frames, 15% restore reads, file
	// volumes and a WAL. Compression, table-SSD misses, container seals
	// and WAL group commit dominate; wire cost is spread over the batch.
	{name: "backup-durable", params: trace.Archival, conns: 1, batch: 64, durable: true, reqPerSec: 14000},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one client frame. A write carries its chunks, which point into
// the connection's materialised contents (duplicates share one slice);
// a read carries the bytes it must return.
type op struct {
	read   bool
	lba    uint64
	chunks [][]byte
	want   []byte
}

// load is one connection's pre-built request stream plus what the
// volume must hold afterwards.
type load struct {
	ops []op
	// final maps every LBA the connection wrote to its last content.
	final map[uint64][]byte
	// writeChunks counts chunk writes; distinct counts materialised
	// contents (the generator's fresh content).
	writeChunks, readChunks, distinct int
}

// buildLoads generates every connection's requests for a seed. All
// payload bytes are materialised here, before any clock starts.
func buildLoads(sp spec, seed int64, reqsPerConn int) ([]*load, error) {
	loads := make([]*load, sp.conns)
	for c := range loads {
		salt := mix64(uint64(seed)<<8 | uint64(c))
		p := sp.params(reqsPerConn)
		p.Seed = int64(salt >> 1)
		g, err := trace.NewGenerator(p)
		if err != nil {
			return nil, err
		}
		shaper := blockcomp.NewShaper(p.CompressRatio)
		contents := make(map[uint64][]byte)
		l := &load{final: make(map[uint64][]byte)}
		base := uint64(c) << lbaShift
		// A restore read that arrives while a sequential run is being
		// batched goes out right after that run's frame.
		var deferred []uint64
		emitReads := func() {
			for _, lba := range deferred {
				l.ops = append(l.ops, op{read: true, lba: lba, want: l.final[lba]})
			}
			l.readChunks += len(deferred)
			deferred = deferred[:0]
		}
		for {
			req, ok := g.Next()
			if !ok {
				break
			}
			lba := base + req.LBA
			if req.Op == trace.OpRead {
				if _, ok := l.final[lba]; !ok {
					return nil, fmt.Errorf("generator read unwritten lba %d", lba)
				}
				deferred = append(deferred, lba)
				if n := len(l.ops); sp.batch == 1 || n == 0 || l.ops[n-1].read {
					emitReads()
				}
				continue
			}
			// The generator's fresh-content numbering does not depend on
			// its seed; salting keeps connections and seeds apart.
			key := mix64(req.ContentSeed ^ salt)
			data, ok := contents[key]
			if !ok {
				data = shaper.Make(key, chunkSize)
				contents[key] = data
				l.distinct++
			}
			l.writeChunks++
			if n := len(l.ops); n > 0 {
				last := &l.ops[n-1]
				if !last.read && len(last.chunks) < sp.batch && last.lba+uint64(len(last.chunks)) == lba {
					last.chunks = append(last.chunks, data)
					l.final[lba] = data
					continue
				}
			}
			emitReads()
			l.ops = append(l.ops, op{lba: lba, chunks: [][]byte{data}})
			l.final[lba] = data
		}
		emitReads()
		loads[c] = l
	}
	return loads, nil
}

// sampleLBAs picks up to n written LBAs per connection, deterministically
// for a seed, with their expected contents.
func sampleLBAs(loads []*load, seed int64, n int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]op, len(loads))
	for c, l := range loads {
		lbas := make([]uint64, 0, len(l.final))
		for lba := range l.final {
			lbas = append(lbas, lba)
		}
		sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
		rng.Shuffle(len(lbas), func(i, j int) { lbas[i], lbas[j] = lbas[j], lbas[i] })
		for _, lba := range lbas[:min(n, len(lbas))] {
			out[c] = append(out[c], op{read: true, lba: lba, want: l.final[lba]})
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
