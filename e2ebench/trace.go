package main

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fidr"
	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/proto"
)

// Span levels, outermost first. A client frame contains the proto.Store
// call(s) the listener makes for it; each of those contains the core
// Store call the async worker makes; a core call contains compressor and
// WAL-device calls.
const (
	lvlFrame = iota // client send -> ack
	lvlProto        // proto.Store call (listener -> async front)
	lvlCore         // fidr.Store call on the async worker
	lvlLeaf         // compressor or WAL device call
	nLevels
)

// Leaf kinds, in the priority order that breaks ties if two kinds ever
// overlap in time.
const (
	leafFsync = iota
	leafWALWrite
	leafDecompress
	leafCompress
	nLeaves
)

// flushConn marks spans that belong to the final flush, which every
// connection waits for.
const flushConn = -1

// ival is one recorded span, in nanoseconds since the tracer's epoch.
type ival struct {
	s, e int64
	// kind is the leaf kind at lvlLeaf, and 1 for a read at lvlCore.
	kind uint8
}

func (v ival) dur() int64 { return v.e - v.s }

// tracer records spans around the calls into each layer, from outside
// the program: it wraps the interfaces the stack is assembled from.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// active is the connection whose core call is running on the async
	// worker; leaf spans (compress lanes, WAL) inherit it. There is one
	// worker, so at most one core call runs at a time.
	active atomic.Int64

	mu    sync.Mutex
	spans map[int]*[nLevels][]ival // per connection (flushConn included)
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make(map[int]*[nLevels][]ival)}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(conn, lvl int, v ival) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	s := t.spans[conn]
	if s == nil {
		s = new([nLevels][]ival)
		t.spans[conn] = s
	}
	s[lvl] = append(s[lvl], v)
	t.mu.Unlock()
}

func connOf(lba uint64) int { return int(lba >> lbaShift) }

// protoStore wraps the proto.Store handed to proto.Serve.
type protoStore struct {
	proto.Store
	t *tracer
}

func (p protoStore) Write(lba uint64, data []byte) error {
	s := p.t.now()
	err := p.Store.Write(lba, data)
	p.t.add(connOf(lba), lvlProto, ival{s: s, e: p.t.now()})
	return err
}

func (p protoStore) Read(lba uint64) ([]byte, error) {
	s := p.t.now()
	b, err := p.Store.Read(lba)
	p.t.add(connOf(lba), lvlProto, ival{s: s, e: p.t.now()})
	return b, err
}

// coreStore wraps the fidr.Store handed to fidr.NewAsync. It forwards
// WriteTraced/ReadTraced so the async worker keeps its traced path.
type coreStore struct {
	srv *core.Server
	t   *tracer
}

func (c coreStore) span(conn int, kind uint8, fn func() error) error {
	c.t.active.Store(int64(conn))
	s := c.t.now()
	err := fn()
	c.t.add(conn, lvlCore, ival{s: s, e: c.t.now(), kind: kind})
	return err
}

func (c coreStore) Write(lba uint64, data []byte) error {
	return c.span(connOf(lba), 0, func() error { return c.srv.Write(lba, data) })
}

func (c coreStore) Read(lba uint64) (b []byte, err error) {
	err = c.span(connOf(lba), 1, func() error { b, err = c.srv.Read(lba); return err })
	return b, err
}

func (c coreStore) WriteTraced(lba uint64, data []byte, tc *fidr.TraceContext) error {
	return c.span(connOf(lba), 0, func() error { return c.srv.WriteTraced(lba, data, tc) })
}

func (c coreStore) ReadTraced(lba uint64, tc *fidr.TraceContext) (b []byte, err error) {
	err = c.span(connOf(lba), 1, func() error { b, err = c.srv.ReadTraced(lba, tc); return err })
	return b, err
}

func (c coreStore) Flush() error {
	return c.span(flushConn, 0, c.srv.Flush)
}

// leaf times one leaf call and files it under the running core call.
func (t *tracer) leaf(kind uint8, fn func()) {
	s := t.now()
	fn()
	t.add(int(t.active.Load()), lvlLeaf, ival{s: s, e: t.now(), kind: kind})
}

// compressor wraps core.Config.Compressor, forwarding CompressAppend so
// the engine keeps its buffer-reusing append path.
type compressor struct {
	inner blockcomp.AppendCompressor
	t     *tracer
}

func (c compressor) Name() string { return c.inner.Name() }

func (c compressor) Compress(src []byte) (out []byte, err error) {
	c.t.leaf(leafCompress, func() { out, err = c.inner.Compress(src) })
	return out, err
}

func (c compressor) CompressAppend(dst, src []byte) (out []byte, err error) {
	c.t.leaf(leafCompress, func() { out, err = c.inner.CompressAppend(dst, src) })
	return out, err
}

func (c compressor) Decompress(src []byte, n int) (out []byte, err error) {
	c.t.leaf(leafDecompress, func() { out, err = c.inner.Decompress(src, n) })
	return out, err
}

// walDevice wraps the core.WALDevice under core.NewWAL.
type walDevice struct {
	*os.File
	t *tracer
}

func (w walDevice) WriteAt(p []byte, off int64) (n int, err error) {
	w.t.leaf(leafWALWrite, func() { n, err = w.File.WriteAt(p, off) })
	return n, err
}

func (w walDevice) Sync() (err error) {
	w.t.leaf(leafFsync, func() { err = w.File.Sync() })
	return err
}

// attribution is the traced run's split of client-visible wall time
// into exclusive layer self times. Each connection's timeline from the
// first send to the final flush ack is cut into the deepest layer active
// at each instant; time no span covers is unattributed (the client loop
// between frames, and a connection idle while another finishes). The
// per-layer totals are averaged over connections, so
//
//	proto + async + core + Σ leaves + unattributed = wall
//
// holds exactly.
type attribution struct {
	wall, proto, async, core, unattributed int64
	leaves                                 [nLeaves]int64

	frameSelf, protoWait        []int64
	coreWriteSelf, coreReadSelf []int64
	frames                      int
	coreBusy, flush             int64
	leafDur                     [nLeaves][]int64
	compressBusy                int64
}

// attribute splits [start, end) given the recorded spans. Spans of one
// connection at one level never overlap, except leaf compress spans of
// parallel lanes, which is why coverage is a union.
func (t *tracer) attribute(start, end int64, conns int) attribution {
	var a attribution
	a.wall = end - start
	var self [nLevels - 1]int64 // frame, proto, core self summed over connections
	var leaves [nLeaves]int64
	for conn, lv := range t.spans {
		for l := range lv {
			sort.Slice(lv[l], func(i, j int) bool { return lv[l][i].s < lv[l][j].s })
		}
		for _, v := range lv[lvlLeaf] {
			a.leafDur[v.kind] = append(a.leafDur[v.kind], v.dur())
			if v.kind == leafCompress {
				a.compressBusy += v.dur()
			}
		}
		for _, v := range lv[lvlCore] {
			a.coreBusy += v.dur()
		}
		if conn == flushConn {
			// The flush runs outside any frame, once for everyone: it sits
			// on every connection's timeline, so its share of the average
			// is its whole duration.
			var sub [nLevels - 1]int64
			var lf [nLeaves]int64
			split(start, end, lvlCore, lv, &sub, &lf, nil)
			a.core += sub[lvlCore]
			for k := range lf {
				a.leaves[k] += lf[k]
			}
			for _, f := range lv[lvlCore] {
				a.flush += f.dur()
			}
			continue
		}
		a.frames += len(lv[lvlFrame])
		split(start, end, lvlFrame, lv, &self, &leaves, &a)
	}
	n := int64(conns)
	a.proto = self[lvlFrame] / n
	a.async = self[lvlProto] / n
	a.core += self[lvlCore] / n
	sum := a.proto + a.async + a.core
	for k := range leaves {
		a.leaves[k] += leaves[k] / n
		sum += a.leaves[k]
	}
	a.unattributed = a.wall - sum
	return a
}

// split attributes [s, e) among the spans of level lvl inside it,
// recursing into each, and adds every level's self time to self and the
// leaf kinds' exclusive time to leaves. A child always starts after its
// parent, so each span's children are the next level's spans that start
// inside it. When rec is set, per-span self times are collected for
// percentiles.
func split(s, e int64, lvl int, lv *[nLevels][]ival, self *[nLevels - 1]int64, leaves *[nLeaves]int64, rec *attribution) {
	if lvl == lvlLeaf {
		// Leaf kinds in priority order: each gets the part of the union
		// not already claimed by a higher-priority kind.
		prev := int64(0)
		for k := 0; k < nLeaves; k++ {
			cov := covered(s, e, lv[lvlLeaf], uint8(k))
			leaves[k] += cov - prev
			prev = cov
		}
		return
	}
	kids := lv[lvl+1]
	i := sort.Search(len(kids), func(i int) bool { return kids[i].s >= s })
	for _, p := range lv[lvl] {
		ps, pe := max(p.s, s), min(p.e, e)
		if ps >= pe {
			continue
		}
		for i < len(kids) && kids[i].s < ps {
			i++
		}
		j := i
		for j < len(kids) && kids[j].s < pe {
			j++
		}
		own := pe - ps - covered(ps, pe, kids[i:j], 255)
		self[lvl] += own
		if rec != nil {
			switch {
			case lvl == lvlFrame:
				rec.frameSelf = append(rec.frameSelf, own)
			case lvl == lvlProto:
				rec.protoWait = append(rec.protoWait, own)
			case p.kind == 1:
				rec.coreReadSelf = append(rec.coreReadSelf, own)
			default:
				rec.coreWriteSelf = append(rec.coreWriteSelf, own)
			}
		}
		next := *lv
		next[lvl] = nil
		next[lvl+1] = kids[i:j]
		split(ps, pe, lvl+1, &next, self, leaves, rec)
		i = j
	}
}

// covered returns how much of [s, e) the union of vs covers, counting
// only leaf kinds <= upTo (255 counts every span). vs is sorted by start.
func covered(s, e int64, vs []ival, upTo uint8) int64 {
	var cov int64
	cur := s
	for _, v := range vs {
		if v.s >= e {
			break
		}
		if v.kind > upTo {
			continue
		}
		lo, hi := max(v.s, cur), min(v.e, e)
		if hi > lo {
			cov += hi - lo
			cur = hi
		}
	}
	return cov
}
