package main

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"fidr"
	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/proto"
	"fidr/internal/ssd"
	"fidr/internal/trace/span"
)

// fidrd flag defaults the stack is built with.
const (
	queueDepth       = 64
	recentTraces     = 256
	traceRing        = 512
	eventsCap        = 1024
	slowQuantile     = 0.99
	slowMin          = time.Millisecond
	slowTraces       = 64
	seriesInterval   = time.Second
	seriesSamples    = 300
	watchdogInterval = 250 * time.Millisecond
	watchdogDeadline = 2 * time.Second
)

// stack is one fidrd-shaped server: proto.Serve(..., WithConcurrentStore())
// over an AsyncStore over a core.Server, wired the way fidrd wires it.
type stack struct {
	sp    spec
	dir   string
	cfg   fidr.Config
	srv   *core.Server
	async *fidr.Async
	ln    *proto.Listener
	walF  *os.File
	stop  chan struct{}
}

func (st *stack) addr() string { return st.ln.Addr().String() }

func volumePaths(dir string) (data, table, wal string) {
	return filepath.Join(dir, "vol.data"), filepath.Join(dir, "vol.table"), filepath.Join(dir, "vol.wal")
}

// fileVolumes opens file-backed data and table volumes, as fidrd
// -data-file -table-file attaches them.
func fileVolumes(dir string) (data, table *ssd.SSD, err error) {
	dcfg, tcfg := ssd.Samsung970Pro("data-ssd"), ssd.Samsung970Pro("table-ssd")
	dcfg.BackingFile, tcfg.BackingFile, _ = volumePaths(dir)
	if data, err = ssd.New(dcfg); err != nil {
		return nil, nil, err
	}
	if table, err = ssd.New(tcfg); err != nil {
		data.Close()
		return nil, nil, err
	}
	return data, table, nil
}

// startStack brings the stack up over fresh volumes in dir. A non-nil
// tracer wraps the layer interfaces; nil leaves the stack exactly as
// fidrd builds it. fault injects a defect (see options.fault).
func startStack(sp spec, dir string, t *tracer, fault string) (*stack, error) {
	st := &stack{sp: sp, dir: dir, cfg: fidr.DefaultConfig(fidr.FIDRFull), stop: make(chan struct{})}
	if sp.durable {
		data, table, walPath := volumePaths(dir)
		for _, p := range []string{data, table, walPath} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		st.walF = f
	}
	if err := st.open(t, fault); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// open builds a server over fresh volumes and starts the async front and
// the listener.
func (st *stack) open(t *tracer, fault string) error {
	cfg := st.cfg
	var lz blockcomp.AppendCompressor = blockcomp.NewLZ()
	if fault == "store" {
		lz = corruptingLZ{lz}
	}
	if t != nil {
		cfg.Compressor = compressor{inner: lz, t: t}
	} else if fault == "store" {
		cfg.Compressor = lz
	}
	var err error
	if st.sp.durable {
		if cfg.DataSSD, cfg.TableSSD, err = fileVolumes(st.dir); err != nil {
			return err
		}
	}
	if st.walF != nil {
		var dev core.WALDevice = st.walF
		if t != nil {
			dev = walDevice{File: st.walF, t: t}
		}
		if cfg.WAL, err = core.NewWAL(dev); err != nil {
			return err
		}
	}
	st.cfg = cfg
	if st.srv, err = fidr.NewServer(cfg); err != nil {
		return err
	}

	col := span.NewCollector(traceRing)
	front := metrics.NewRegistry()
	journal := fidr.NewEventJournal(eventsCap)
	view := st.srv.EnableObservability(nil, recentTraces)
	st.srv.ConfigureFlightRecorder(slowQuantile, slowMin, slowTraces)
	st.srv.SetSpanCollector(col, 0)
	st.srv.SetTraceSampling(0)
	st.srv.SetEventJournal(journal, 0)

	var backend fidr.Store = st.srv
	if t != nil {
		backend = coreStore{srv: st.srv, t: t}
	}
	async, err := fidr.NewAsync(backend, queueDepth)
	if err != nil {
		return err
	}
	st.async = async
	async.EnableObservability(front)
	async.SetSpanCollector(col)
	as, err := fidr.NewAsyncStore(async, cfg.ChunkSize)
	if err != nil {
		return err
	}
	var store proto.Store = as
	if t != nil {
		store = protoStore{Store: as, t: t}
	}
	if fault == "read" {
		store = corruptingReads{store}
	}

	watchdog := health.NewWatchdog()
	watchdog.Instrument(front)
	watchdog.SetEventJournal(journal)
	watchdog.Add(health.HeartbeatProbe("async.worker.g0", async.WorkerHeartbeat(0), watchdogDeadline))
	watchdog.Add(health.ProgressProbe("async.queue.g0", watchdogDeadline,
		func() int { return async.QueueDepth(0) }, async.Completed))
	slo := metrics.NewSLO(metrics.Multi(view, front), metrics.DefaultObjectives(), seriesSamples)
	slo.Instrument(front)
	slo.SetEventJournal(journal)
	go slo.Run(seriesInterval, st.stop)

	if st.ln, err = proto.Serve(store, "127.0.0.1:0",
		proto.WithSpanCollector(col),
		proto.WithMetrics(front),
		proto.WithConcurrentStore()); err != nil {
		return err
	}
	go watchdog.Run(watchdogInterval, st.stop)
	return nil
}

// maintain runs fn on the async worker that owns the server.
func (st *stack) maintain(fn func() error) error {
	return st.async.Maintenance(func(fidr.Store) error { return fn() })
}

// drop takes the server down without a checkpoint: the listener and
// the async front stop (draining queued requests), then file-backed
// devices release their handles. The volumes stay as they are.
func (st *stack) drop() error {
	var errs []error
	if st.ln != nil {
		errs = append(errs, st.ln.Close())
		st.ln = nil
	}
	if st.async != nil {
		errs = append(errs, st.async.Close())
		st.async = nil
	}
	select {
	case <-st.stop:
	default:
		close(st.stop)
	}
	if st.cfg.DataSSD != nil {
		errs = append(errs, st.cfg.DataSSD.Close(), st.cfg.TableSSD.Close())
		st.cfg.DataSSD, st.cfg.TableSSD = nil, nil
	}
	return errors.Join(errs...)
}

// close drops the stack and releases the WAL file.
func (st *stack) close() error {
	err := st.drop()
	if st.walF != nil {
		err = errors.Join(err, st.walF.Close())
		st.walF = nil
	}
	return err
}

// recoverServer rebuilds a server from the files of a dropped durable
// stack, as fidrd -recover does after a crash: it reopens the volume
// files and the WAL and replays the log. It returns the time taken.
func (st *stack) recoverServer() (*core.Server, time.Duration, error) {
	if st.cfg.DataSSD != nil {
		// A previous recovery's devices.
		if err := errors.Join(st.cfg.DataSSD.Close(), st.cfg.TableSSD.Close()); err != nil {
			return nil, 0, err
		}
	}
	cfg := st.cfg
	cfg.Compressor = nil
	start := time.Now()
	var err error
	if cfg.DataSSD, cfg.TableSSD, err = fileVolumes(st.dir); err != nil {
		return nil, 0, err
	}
	st.cfg.DataSSD, st.cfg.TableSSD = cfg.DataSSD, cfg.TableSSD
	if cfg.WAL, err = core.NewWAL(st.walF); err != nil {
		return nil, 0, err
	}
	srv, err := core.RecoverServer(cfg)
	return srv, time.Since(start), err
}

// corruptingLZ flips the first byte of every chunk before compressing
// it: stored data no longer hashes to its fingerprint (fault "store").
type corruptingLZ struct{ blockcomp.AppendCompressor }

func (c corruptingLZ) CompressAppend(dst, src []byte) ([]byte, error) {
	bad := append([]byte(nil), src...)
	bad[0] ^= 0xff
	return c.AppendCompressor.CompressAppend(dst, bad)
}

func (c corruptingLZ) Compress(src []byte) ([]byte, error) { return c.CompressAppend(nil, src) }

// corruptingReads flips the last byte of every read payload on the
// server side of the wire (fault "read").
type corruptingReads struct{ proto.Store }

func (c corruptingReads) Read(lba uint64) ([]byte, error) {
	b, err := c.Store.Read(lba)
	if err == nil && len(b) > 0 {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 0xff
	}
	return b, err
}
