package mapred

import (
	"bytes"
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/mof"
)

// sortEntry locates one record inside the arena. 24 bytes per record
// regardless of partition count.
type sortEntry struct {
	off  uint64
	part uint32
	klen uint32
	vlen uint32
}

// sortMergeWriter is the high-partition-count sort writer. Where
// sortSpillWriter keeps one record slice per partition (two allocations
// per record, one sort per partition), this writer appends every
// key/value into one shared byte arena and keeps a compact entry per
// record; a single sort over (partition, key) orders the entire buffer,
// and a sequential walk writes it out partition by partition. Run
// spills and the final multi-way run merge reuse the same partitioned-MOF
// machinery as the spill writer.
type sortMergeWriter struct {
	cfg     WriterConfig
	arena   []byte
	entries []sortEntry
	bytes   int64
	runs    []MOFPaths
}

func newSortMergeWriter(cfg WriterConfig) *sortMergeWriter {
	return &sortMergeWriter{cfg: cfg}
}

// Strategy names the implementation.
func (w *sortMergeWriter) Strategy() WriterStrategy { return WriterSortMerge }

func (w *sortMergeWriter) key(e sortEntry) []byte {
	return w.arena[e.off : e.off+uint64(e.klen)]
}

func (w *sortMergeWriter) val(e sortEntry) []byte {
	return w.arena[e.off+uint64(e.klen) : e.off+uint64(e.klen)+uint64(e.vlen)]
}

// Add copies one record into the arena, spilling a sorted run when the
// buffer exceeds its budget.
func (w *sortMergeWriter) Add(partition int, key, value []byte) error {
	e := sortEntry{
		off:  uint64(len(w.arena)),
		part: uint32(partition),
		klen: uint32(len(key)),
		vlen: uint32(len(value)),
	}
	w.arena = append(w.arena, key...)
	w.arena = append(w.arena, value...)
	w.entries = append(w.entries, e)
	w.bytes += int64(len(key) + len(value))
	if w.cfg.SortMemory > 0 && w.bytes > w.cfg.SortMemory {
		return w.spill()
	}
	return nil
}

// sortEntries orders the buffer by (partition, key). The order must be
// stable: records with equal keys keep emit order, matching what the
// other writers (and the reduce-side normalization) produce. Arena
// offsets grow in emit order, so breaking ties on the offset makes the
// order total and lets the faster unstable sort produce it.
func (w *sortMergeWriter) sortEntries() {
	slices.SortFunc(w.entries, func(a, b sortEntry) int {
		if c := cmp.Compare(a.part, b.part); c != 0 {
			return c
		}
		if c := bytes.Compare(w.key(a), w.key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
}

// writeRun sorts the buffer and writes it as one partitioned MOF pair,
// running the combiner per partition when set.
func (w *sortMergeWriter) writeRun(paths MOFPaths) error {
	w.sortEntries()
	mw, err := mof.NewWriter(paths.Data, paths.Index, w.cfg.Partitions, writerOptions(w.cfg.Compress)...)
	if err != nil {
		return err
	}
	i := 0
	for i < len(w.entries) {
		p := w.entries[i].part
		j := i
		for j < len(w.entries) && w.entries[j].part == p {
			j++
		}
		if err := mw.BeginSegment(int(p)); err != nil {
			return err
		}
		if w.cfg.Combine != nil {
			recs := make([]mof.Record, 0, j-i)
			for _, e := range w.entries[i:j] {
				recs = append(recs, mof.Record{Key: w.key(e), Value: w.val(e)})
			}
			recs, err = combinePartition(w.cfg.Combine, recs, w.cfg.cs)
			if err != nil {
				return err
			}
			for _, r := range recs {
				if err := mw.Append(r.Key, r.Value); err != nil {
					return err
				}
			}
		} else {
			for _, e := range w.entries[i:j] {
				if err := mw.Append(w.key(e), w.val(e)); err != nil {
					return err
				}
			}
		}
		i = j
	}
	return mw.Close()
}

// spill writes the arena as a numbered run and resets it, keeping the
// allocated capacity for the next fill.
func (w *sortMergeWriter) spill() error {
	if w.bytes == 0 {
		return nil
	}
	paths := MOFPaths{
		Data:  filepath.Join(w.cfg.Dir, fmt.Sprintf("%s.spill%d.data", w.cfg.TaskID, len(w.runs))),
		Index: filepath.Join(w.cfg.Dir, fmt.Sprintf("%s.spill%d.index", w.cfg.TaskID, len(w.runs))),
	}
	if err := w.writeRun(paths); err != nil {
		return err
	}
	w.cfg.cs.addMapSpill(w.bytes)
	observeWriterSpill(WriterSortMerge)
	w.runs = append(w.runs, paths)
	w.arena = w.arena[:0]
	w.entries = w.entries[:0]
	w.bytes = 0
	return nil
}

// Seal writes the final MOF: a direct sorted write when nothing spilled,
// otherwise the shared per-partition run merge.
func (w *sortMergeWriter) Seal(final MOFPaths) error {
	start := time.Now()
	if len(w.runs) == 0 {
		if err := w.writeRun(final); err != nil {
			return err
		}
		observeWriterSeal(WriterSortMerge, start, final)
		return nil
	}
	if err := w.spill(); err != nil {
		return err
	}
	defer removeRuns(w.runs)
	if err := mergeRuns(w.runs, w.cfg.Partitions, final, w.cfg.Compress); err != nil {
		return err
	}
	observeWriterSeal(WriterSortMerge, start, final)
	return nil
}

// Abort discards the spill runs of a failed attempt.
func (w *sortMergeWriter) Abort() {
	removeRuns(w.runs)
	w.runs = nil
}

// Interface check.
var _ ShuffleWriter = (*sortMergeWriter)(nil)
