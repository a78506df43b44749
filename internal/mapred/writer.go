package mapred

import (
	"fmt"
	"os"

	"repro/internal/merge"
	"repro/internal/mof"
)

// WriterStrategy names a map-side shuffle writer implementation.
type WriterStrategy string

// The writer strategies. WriterAuto is not a concrete writer: it tells
// the cluster to let SelectWriter pick one from the job shape.
const (
	// WriterAuto (the zero value) defers the choice to the adaptive
	// selector.
	WriterAuto WriterStrategy = ""
	// WriterSortSpill is the classic Hadoop sort buffer: records
	// accumulate per partition, overflow spills sorted runs to disk, and
	// the runs merge into the final MOF at task end. The only strategy
	// tuned for map-side combining: the combiner runs over every sorted
	// run before it hits disk.
	WriterSortSpill WriterStrategy = "sort-spill"
	// WriterBypass is the hash-style writer modeled on Spark's
	// BypassMergeSortShuffleWriter: each record is encoded straight into
	// its partition's in-memory buffer with no sorting, and sealing
	// writes the buffers into the servable MOF in one sequential pass.
	// Past SortMemory the buffers spill to per-partition files, which
	// the seal reads back ahead of each buffer. Ineligible when a
	// combiner is set (combining needs sorted groups) and intended for
	// modest partition counts (one buffer, and once spilled one open
	// file, per partition).
	WriterBypass WriterStrategy = "bypass"
	// WriterSortMerge is the shared-arena sort writer: every record lands
	// in one shared byte arena with a compact entry, and a single stable
	// sort over (partition, key) orders the whole buffer — no
	// per-partition record slices and two fewer allocations per record
	// than the classic buffer. Measured, that wins exactly where
	// allocation dominates: combining jobs over small records (see the
	// selector thresholds in writerselect.go).
	WriterSortMerge WriterStrategy = "sort-merge"
)

// valid reports whether s names a known strategy (or auto).
func (s WriterStrategy) valid() bool {
	switch s {
	case WriterAuto, WriterSortSpill, WriterBypass, WriterSortMerge:
		return true
	}
	return false
}

// ShuffleWriter is the map side's MOF production strategy: a MapTask
// opens one writer, feeds it every intermediate record, and seals it into
// the task's servable MOF. Every strategy produces a MOF that the
// supplier and reduce path consume unchanged — the read side cannot tell
// which writer ran (the bypass writer's segments arrive unsorted and are
// normalized by the reduce-side mergers on ingest).
type ShuffleWriter interface {
	// Strategy names the implementation.
	Strategy() WriterStrategy
	// Add accepts one intermediate record for the given reduce partition.
	Add(partition int, key, value []byte) error
	// Seal produces the final MOF (data + index) at the given paths. The
	// writer is spent afterwards.
	Seal(final MOFPaths) error
	// Abort discards scratch state (spill runs, partition files) after a
	// failed attempt. Best effort; safe to call after a failed Seal.
	Abort()
}

// WriterConfig sizes one map attempt's writer.
type WriterConfig struct {
	// Partitions is the job's reducer count.
	Partitions int
	// SortMemory bounds buffered bytes before a writer spills
	// (0 = unbounded): the sort writers spill a sorted run of key and
	// value bytes; the bypass writer appends its stored (encoded,
	// possibly compressed) partition buffers to per-partition files.
	// With compression on, the bypass writer's flate encoders hold up to
	// one 64 KiB block of input per partition outside the budget.
	SortMemory int64
	// Dir is the local scratch directory for runs and partition files.
	Dir string
	// TaskID prefixes scratch file names; it must be unique per attempt.
	TaskID string
	// Combine is the optional map-side combiner (sort writers only).
	Combine ReduceFunc
	// Compress enables per-segment flate compression of the MOF.
	Compress bool

	// cs receives spill/combine counters when the writer runs inside a
	// cluster job; nil outside one (benchmark and test harnesses).
	cs *counterSet
}

// NewShuffleWriter constructs the named strategy. WriterAuto is not
// accepted here — resolve it through SelectWriter first.
func NewShuffleWriter(s WriterStrategy, cfg WriterConfig) (ShuffleWriter, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("mapred: writer needs at least one partition, got %d", cfg.Partitions)
	}
	if cfg.Dir == "" || cfg.TaskID == "" {
		return nil, fmt.Errorf("mapred: writer needs a scratch dir and task ID")
	}
	switch s {
	case WriterSortSpill:
		return newSortSpillWriter(cfg), nil
	case WriterBypass:
		if cfg.Combine != nil {
			return nil, fmt.Errorf("mapred: bypass writer cannot run a combiner")
		}
		return newBypassWriter(cfg), nil
	case WriterSortMerge:
		return newSortMergeWriter(cfg), nil
	}
	return nil, fmt.Errorf("mapred: unknown writer strategy %q", s)
}

// writerOptions maps the compression flag to MOF writer options.
func writerOptions(compress bool) []mof.WriterOption {
	if compress {
		return []mof.WriterOption{mof.WithCompression()}
	}
	return nil
}

// mergeRuns merges the per-partition segments of every run into the final
// MOF — Hadoop's final map-side merge pass, shared by both sort writers.
// Run files are left in place; callers remove them.
func mergeRuns(runs []MOFPaths, partitions int, final MOFPaths, compress bool) error {
	indexes := make([]*mof.Index, len(runs))
	for i, r := range runs {
		ix, err := mof.ReadIndex(r.Index)
		if err != nil {
			return err
		}
		indexes[i] = ix
	}
	w, err := mof.NewWriter(final.Data, final.Index, partitions, writerOptions(compress)...)
	if err != nil {
		return err
	}
	for p := 0; p < partitions; p++ {
		var sources []merge.Source
		empty := true
		for i, r := range runs {
			entry, err := indexes[i].Entry(p)
			if err != nil {
				closeSources(sources)
				return err
			}
			if entry.Length == 0 {
				continue
			}
			sr, err := mof.OpenSegment(r.Data, entry)
			if err != nil {
				closeSources(sources)
				return err
			}
			sources = append(sources, segmentSource{sr})
			empty = false
		}
		if empty {
			continue
		}
		if err := w.BeginSegment(p); err != nil {
			closeSources(sources)
			return err
		}
		err := merge.Merge(sources, func(r mof.Record) error {
			return w.Append(r.Key, r.Value)
		})
		if err != nil {
			return err
		}
	}
	return w.Close()
}

// removeRuns deletes spill run files (best effort: an aborted attempt
// must not fail its cleanup path).
func removeRuns(runs []MOFPaths) {
	for _, r := range runs {
		_ = os.Remove(r.Data)
		_ = os.Remove(r.Index)
	}
}
