package main

import (
	"errors"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/transport"
)

// streamHot is bare forwarding: a few large segments, each spanning
// several transport chunks, served from a DataCache that holds the whole
// working set after the warm-up round. Static addresses, no registry,
// flow control off, no hedging, so disk, FileCache, registry, flow and
// merge stay idle and the per-byte path (framing, transmit, reassembly)
// is what gets measured.
type streamHot struct {
	grid
	sup *core.MOFSupplier
}

func newStreamHot(seed uint64, tiny bool, tr *tracer) *streamHot {
	w := &streamHot{grid: grid{tasks: 8, parts: 8, segBytes: 512 << 10, seed: seed, callers: callers(), tr: tr}}
	if tiny {
		w.tasks, w.parts, w.segBytes = 2, 4, 160<<10
	}
	return w
}

func (w *streamHot) setup(dir string) error {
	if err := w.writeFixture(dir); err != nil {
		return err
	}
	var err error
	w.sup, err = core.NewMOFSupplier(core.SupplierConfig{
		Transport: transport.NewTCP(),
		Addr:      "127.0.0.1:0",
		// Twice the 32 MiB working set: after the warm-up round every
		// fetch is a DataCache hit.
		DataCacheBytes: 64 << 20,
	}, daemon.DirLookup(dir))
	if err != nil {
		return err
	}
	if w.m, err = core.NewNetMerger(core.MergerConfig{Transport: transport.NewTCP()}); err != nil {
		return err
	}
	w.buildSpecs(w.sup.Addr())
	return warmUp(w)
}

// warmUp runs one untimed round and fails on any bad output.
func warmUp(w runner) error {
	var t tally
	if err := phase(w, 0, &t); err != nil {
		return err
	}
	if t.failed > 0 {
		return t.firstErr
	}
	return nil
}

func (w *streamHot) counts() map[string]int64 { return nil }

func (w *streamHot) close() error {
	var errs []error
	if w.m != nil {
		errs = append(errs, w.m.Close())
	}
	if w.sup != nil {
		errs = append(errs, w.sup.Close())
	}
	return errors.Join(errs...)
}
