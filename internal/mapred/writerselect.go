package mapred

import (
	"fmt"
	"sync"
)

// Selector thresholds. The values are measured, not guessed: `make
// writer-matrix` benchmarks seal throughput over the (partition count ×
// record size × combiner) grid and EXPERIMENTS.md ("Writer crossover
// matrix") records the run these defaults were read from.
const (
	// DefaultBypassMaxPartitions is the largest reducer count at which
	// the bypass hash writer is chosen. It holds at least one 32 KiB
	// buffer chunk per non-empty partition, a ~1.2 MB flate encoder per
	// partition when compressing, and once it spills an open file per
	// partition, so its memory grows linearly with the reducer count
	// (Spark ships the same guard as
	// spark.shuffle.sort.bypassMergeThreshold = 200). The cap guards that
	// memory, not throughput: measured, bypass wins every no-combine cell
	// at 256 partitions too.
	DefaultBypassMaxPartitions = 64
	// DefaultBypassMaxRecordBytes is the largest expected record size at
	// which bypass is chosen. Record-dense streams are where skipping the
	// sort pays most (measured ~10x at 64 B records). With the partition
	// buffers in memory bypass copies each record once before the MOF
	// write, and it still leads the sort buffer at 4 KiB records, the
	// largest size measured (1.1–1.5x).
	DefaultBypassMaxRecordBytes = 4096
	// DefaultSortMergeMaxRecordBytes bounds the shared-arena writer's
	// measured niche: combining jobs with small records, where the
	// classic buffer's two allocations per record dominate and the arena
	// wins (69 vs 55 MB/s at 64 B records, 4 partitions). By 512 B
	// records the copy bandwidth dominates allocation and sort-spill is
	// ahead again.
	DefaultSortMergeMaxRecordBytes = 128
	// DefaultSortMergeMaxPartitions caps sort-merge selection: at 256
	// partitions the per-partition sorts are tiny and sort-spill edges it
	// out even on small records.
	DefaultSortMergeMaxPartitions = 64
)

// WriterDecision is one job's writer selection and the inputs that drove
// it; /debug/jbs shows the most recent one.
type WriterDecision struct {
	// Strategy is the chosen writer.
	Strategy WriterStrategy
	// Override is true when Job.Writer pinned the strategy explicitly.
	Override bool
	// Partitions is the job's reducer count.
	Partitions int
	// RecordBytes is the job's expected record size hint (0 = unknown).
	RecordBytes int64
	// Combine is whether the job sets a map-side combiner.
	Combine bool
	// Reason is a one-line human-readable justification.
	Reason string
}

// SelectWriter picks the map-side writer strategy from the job shape:
// reducer count, expected record size, and combiner presence. An explicit
// Job.Writer wins unconditionally (Validate has already checked its
// eligibility).
func SelectWriter(job *Job) WriterDecision {
	d := WriterDecision{
		Partitions:  job.NumReducers,
		RecordBytes: job.ExpectedRecordBytes,
		Combine:     job.Combine != nil,
	}
	if job.Writer != WriterAuto {
		d.Strategy = job.Writer
		d.Override = true
		d.Reason = fmt.Sprintf("explicit Job.Writer=%q", string(job.Writer))
		return d
	}
	switch {
	case d.Combine:
		// Only the sort writers can combine (combining needs sorted
		// groups). The arena writer wins the allocation-bound corner —
		// small records at modest partition counts — and the classic
		// buffer everything else.
		if d.RecordBytes != 0 && d.RecordBytes <= DefaultSortMergeMaxRecordBytes &&
			d.Partitions <= DefaultSortMergeMaxPartitions {
			d.Strategy = WriterSortMerge
			d.Reason = fmt.Sprintf("combiner with %dB records <= %d: shared arena beats two allocations per record",
				d.RecordBytes, DefaultSortMergeMaxRecordBytes)
		} else {
			d.Strategy = WriterSortSpill
			d.Reason = "combiner set: sort buffer combines every sorted run"
		}
	case d.Partitions <= DefaultBypassMaxPartitions &&
		(d.RecordBytes == 0 || d.RecordBytes <= DefaultBypassMaxRecordBytes):
		d.Strategy = WriterBypass
		d.Reason = fmt.Sprintf("no combiner, %d partitions <= %d: buffer per partition, skip the sort",
			d.Partitions, DefaultBypassMaxPartitions)
	default:
		d.Strategy = WriterSortSpill
		d.Reason = "wide or large-record job: classic sort buffer"
	}
	return d
}

var (
	lastDecisionMu sync.Mutex
	lastDecision   WriterDecision
	haveDecision   bool
)

// recordWriterDecision publishes one job's selection: the last-decision
// store for /debug/jbs plus the per-strategy choice counter and
// selected gauge.
func recordWriterDecision(d WriterDecision) {
	lastDecisionMu.Lock()
	lastDecision = d
	haveDecision = true
	lastDecisionMu.Unlock()
	for s, ins := range writerInstrumentsFor {
		if s == d.Strategy {
			ins.choice.Inc()
			ins.selected.Set(1)
		} else {
			ins.selected.Set(0)
		}
	}
}

// LastWriterDecision returns the selection made for the most recently
// started job, and whether any job has run yet.
func LastWriterDecision() (WriterDecision, bool) {
	lastDecisionMu.Lock()
	defer lastDecisionMu.Unlock()
	return lastDecision, haveDecision
}
