package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mapred"
)

// WriterMatrixConfig sizes the map-side writer crossover measurement: the
// same record stream runs through every writer strategy on a grid of
// (partition count × record size) cells, with and without a combiner, and
// each cell reports seal throughput — records in, servable MOF out.
type WriterMatrixConfig struct {
	// Partitions are the reducer counts to sweep.
	Partitions []int
	// RecordBytes are the record sizes (key + value) to sweep.
	RecordBytes []int
	// TotalBytes is the data volume per cell.
	TotalBytes int64
	// Rounds runs each (cell, strategy) this many times, keeping the best
	// (benchmarks-by-minimum suppresses scheduler noise).
	Rounds int
	// Combine adds a second pass over the grid with a combiner set, where
	// the bypass writer is ineligible by rule.
	Combine bool
	// Seed makes the record stream reproducible.
	Seed int64
}

// DefaultWriterMatrixConfig is the full measurement grid behind the
// selector's defaults (EXPERIMENTS.md, "Writer crossover matrix").
func DefaultWriterMatrixConfig() WriterMatrixConfig {
	return WriterMatrixConfig{
		Partitions:  []int{4, 16, 64, 256},
		RecordBytes: []int{64, 512, 2048, 4096},
		TotalBytes:  8 << 20,
		Rounds:      3,
		Combine:     true,
		Seed:        42,
	}
}

// ShortWriterMatrixConfig is the CI smoke grid: each strategy's decisive
// home cell at 4 partitions — bypass at 64 B records without a combiner,
// sort-merge at 64 B with one, sort-spill at 4 KiB with one — with small
// volumes.
func ShortWriterMatrixConfig() WriterMatrixConfig {
	return WriterMatrixConfig{
		Partitions:  []int{4},
		RecordBytes: []int{64, 4096},
		TotalBytes:  2 << 20,
		Rounds:      2,
		Combine:     true,
		Seed:        42,
	}
}

// WriterCell is one measured grid cell.
type WriterCell struct {
	// Partitions and RecordBytes locate the cell.
	Partitions  int
	RecordBytes int
	// Combine marks the combiner pass (bypass ineligible).
	Combine bool
	// MBps is the best-of-rounds seal throughput per strategy; absent
	// means ineligible.
	MBps map[mapred.WriterStrategy]float64
	// Winner is the fastest measured strategy.
	Winner mapred.WriterStrategy
	// Selected is what SelectWriter picks for this job shape.
	Selected mapred.WriterStrategy
}

// matrixStrategies is the measurement order (also the report columns).
var matrixStrategies = []mapred.WriterStrategy{
	mapred.WriterSortSpill, mapred.WriterBypass, mapred.WriterSortMerge,
}

// matrixRecord is one pre-generated record with its partition resolved,
// so the timed loop measures the writer and nothing else.
type matrixRecord struct {
	key, val []byte
	part     int
}

// genRecords builds the cell's record stream: seeded, unsorted, with
// moderate key duplication (so combining and stable ordering both have
// work to do).
func genRecords(cfg WriterMatrixConfig, partitions, recordBytes int) []matrixRecord {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.TotalBytes) / recordBytes
	if n < 1 {
		n = 1
	}
	distinct := n/8 + 1
	recs := make([]matrixRecord, n)
	for i := range recs {
		key := []byte(fmt.Sprintf("key-%08d", rng.Intn(distinct)))
		valLen := recordBytes - len(key)
		if valLen < 1 {
			valLen = 1
		}
		val := make([]byte, valLen)
		rng.Read(val)
		recs[i] = matrixRecord{key: key, val: val, part: mapred.HashPartitioner(key, partitions)}
	}
	return recs
}

// firstValue is the matrix's combiner: cheap and reduction-heavy, so the
// combine pass measures the writers' combining machinery rather than a
// user function.
func firstValue(key []byte, values [][]byte, emit mapred.Emit) error {
	emit(key, values[0])
	return nil
}

// runCellStrategy measures one (cell, strategy) pair: full Add+Seal into
// a scratch MOF, best of cfg.Rounds, returned as MB/s.
func runCellStrategy(cfg WriterMatrixConfig, s mapred.WriterStrategy, recs []matrixRecord, partitions int, combine bool) (float64, error) {
	var combineFn mapred.ReduceFunc
	if combine {
		combineFn = firstValue
	}
	best := time.Duration(0)
	for round := 0; round < cfg.Rounds; round++ {
		dir, err := os.MkdirTemp("", "writermatrix")
		if err != nil {
			return 0, err
		}
		w, err := mapred.NewShuffleWriter(s, mapred.WriterConfig{
			Partitions: partitions,
			Dir:        dir,
			TaskID:     "m-0",
			Combine:    combineFn,
		})
		if err != nil {
			os.RemoveAll(dir)
			return 0, err
		}
		final := mapred.MOFPaths{
			Data:  filepath.Join(dir, "final.data"),
			Index: filepath.Join(dir, "final.index"),
		}
		start := time.Now()
		for i := range recs {
			if err := w.Add(recs[i].part, recs[i].key, recs[i].val); err != nil {
				w.Abort()
				os.RemoveAll(dir)
				return 0, err
			}
		}
		if err := w.Seal(final); err != nil {
			w.Abort()
			os.RemoveAll(dir)
			return 0, err
		}
		elapsed := time.Since(start)
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return float64(cfg.TotalBytes) / (1 << 20) / best.Seconds(), nil
}

// WriterMatrix measures the crossover grid and reports it, marking each
// cell's measured winner against the selector's choice for that shape.
func WriterMatrix(cfg WriterMatrixConfig) (*Report, []WriterCell, error) {
	rep := &Report{
		ID:    "writer-matrix",
		Title: fmt.Sprintf("Map-side writer crossover: seal MB/s per strategy, %d MiB per cell, best of %d", cfg.TotalBytes>>20, cfg.Rounds),
		Header: []string{"Partitions", "RecBytes", "Combine",
			string(mapred.WriterSortSpill), string(mapred.WriterBypass), string(mapred.WriterSortMerge),
			"Winner", "Selected"},
	}
	combinePasses := []bool{false}
	if cfg.Combine {
		combinePasses = append(combinePasses, true)
	}
	var cells []WriterCell
	for _, combine := range combinePasses {
		for _, p := range cfg.Partitions {
			for _, rb := range cfg.RecordBytes {
				recs := genRecords(cfg, p, rb)
				cell := WriterCell{
					Partitions:  p,
					RecordBytes: rb,
					Combine:     combine,
					MBps:        make(map[mapred.WriterStrategy]float64, len(matrixStrategies)),
				}
				for _, s := range matrixStrategies {
					if combine && s == mapred.WriterBypass {
						continue // ineligible by rule, not by measurement
					}
					mbps, err := runCellStrategy(cfg, s, recs, p, combine)
					if err != nil {
						return nil, nil, fmt.Errorf("bench: writer matrix %s p=%d rb=%d: %w", s, p, rb, err)
					}
					cell.MBps[s] = mbps
					if cell.Winner == "" || mbps > cell.MBps[cell.Winner] {
						cell.Winner = s
					}
				}
				job := &mapred.Job{NumReducers: p, ExpectedRecordBytes: int64(rb)}
				if combine {
					job.Combine = firstValue
				}
				cell.Selected = SelectFor(job)
				cells = append(cells, cell)

				fmtMBps := func(s mapred.WriterStrategy) string {
					v, ok := cell.MBps[s]
					if !ok {
						return "-"
					}
					return fmt.Sprintf("%.0f", v)
				}
				rep.AddRow(
					fmt.Sprintf("%d", p), fmt.Sprintf("%d", rb), fmt.Sprintf("%v", combine),
					fmtMBps(mapred.WriterSortSpill), fmtMBps(mapred.WriterBypass), fmtMBps(mapred.WriterSortMerge),
					string(cell.Winner), string(cell.Selected))
			}
		}
	}
	matched := 0
	for _, c := range cells {
		if c.Winner == c.Selected {
			matched++
		}
	}
	rep.AddNote("Selector matched the measured winner on %d of %d cells", matched, len(cells))
	return rep, cells, nil
}

// SelectFor exposes the selector's choice for a synthetic job shape (the
// matrix and its smoke assertions use it; cmd/jbsbench prints it).
func SelectFor(job *mapred.Job) mapred.WriterStrategy {
	return mapred.SelectWriter(job).Strategy
}

// WriterMatrixSmoke is the CI assertion over a measured grid: every
// strategy must have at least one cell where the selector chose it AND
// the measurement crowned it — the encoded thresholds still match this
// machine's reality.
func WriterMatrixSmoke(cells []WriterCell) error {
	confirmed := make(map[mapred.WriterStrategy]bool, len(matrixStrategies))
	for _, c := range cells {
		if c.Selected == c.Winner {
			confirmed[c.Selected] = true
		}
	}
	for _, s := range matrixStrategies {
		if !confirmed[s] {
			return fmt.Errorf("bench: writer-matrix smoke: no cell where the selector picked %q and it measured fastest", s)
		}
	}
	return nil
}
