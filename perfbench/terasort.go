package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapred"
	"repro/internal/merge"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// terasortJob is a whole functional-engine job through the public
// dfs/mapred/workload/shuffle API on three in-process nodes with the
// jbs-tcp provider: the one workload with the write side (map-side
// writer seal, MOF write) next to the read side (fetch and
// network-levitated merge ingest). Registry, flow and hedging are idle.
type terasortJob struct {
	records, blockRecords, reducers int
	seed                            uint64
	tr                              *tracer

	root  string
	fs    *dfs.Cluster
	eng   *mapred.Cluster
	nodes []string
	input fingerprint
	jobs  int

	// jobSpan is the span of the job in flight, the parent of the spans
	// the wrapped provider records.
	jobSpan  atomic.Int32
	unsorted atomic.Int64
	nextID   atomic.Uint64

	mu sync.Mutex
	// columns[reduceID] sums the wall time of a reducer's Fetch calls:
	// the engine fetches a reducer's partition column in batches as
	// maps commit, and the sum is the column's fetch time.
	columns map[string]time.Duration
	// deliverSpan[reduceID] is the deliver span a reducer's merger
	// ingest runs under, set while tracing.
	deliverSpan map[string]fetchRef
}

func newTerasort(seed uint64, tiny bool, tr *tracer) *terasortJob {
	w := &terasortJob{records: 1 << 20, blockRecords: 2048, reducers: 4, seed: seed, tr: tr,
		columns: make(map[string]time.Duration), deliverSpan: make(map[string]fetchRef)}
	if tiny {
		w.records, w.blockRecords = 20000, 1000
	}
	w.jobSpan.Store(-1)
	return w
}

func (w *terasortJob) setup(dir string) error {
	w.root = dir
	w.nodes = []string{"node00", "node01", "node02"}
	var err error
	w.fs, err = dfs.NewCluster(dfs.Config{BlockSize: int64(w.blockRecords * workload.TeraRecordLen), Replication: 1},
		w.nodes, filepath.Join(dir, "dfs"))
	if err != nil {
		return err
	}
	if err := workload.Terasort().Generate(w.fs, "/input", w.nodes[0], w.records, int64(w.seed)); err != nil {
		return fmt.Errorf("teragen: %w", err)
	}
	in, err := w.fs.Open("/input", "")
	if err != nil {
		return err
	}
	w.input, err = inputFingerprint(in)
	in.Close()
	if err != nil {
		return err
	}
	jbs, err := shuffle.NewJBSProvider(shuffle.JBSConfig{Transport: "tcp"})
	if err != nil {
		return err
	}
	w.eng, err = mapred.NewCluster(mapred.Config{Nodes: w.nodes, WorkDir: filepath.Join(dir, "work")}, w.fs,
		&tracedProvider{ShuffleProvider: jbs, w: w})
	if err != nil {
		return err
	}
	// Warm-up job: page cache, connections, buffer pool.
	return warmUp(w)
}

// round runs one job, timed from Cluster.Run to its result, then checks
// that the output is globally sorted and holds the input's records.
func (w *terasortJob) round(t *tally) error {
	w.jobs++
	out := fmt.Sprintf("/out-%04d", w.jobs)
	job := workload.Terasort().Job("/input", out, w.reducers)
	w.mu.Lock()
	clear(w.columns)
	w.mu.Unlock()
	js := w.tr.begin("mapred.job", 0, -1)
	w.jobSpan.Store(js)
	u0 := readUsage()
	start := time.Now()
	res, err := w.eng.Run(job)
	d := time.Since(start)
	u1 := readUsage()
	w.jobSpan.Store(-1)
	w.tr.end(js)
	if err == nil {
		err = w.check(res)
	}
	var shuffled, failed int64
	if err != nil {
		failed = 1
	} else {
		shuffled = res.Counters.ShuffledBytes
	}
	w.mu.Lock()
	for _, c := range w.columns {
		t.addFetch(c)
	}
	w.mu.Unlock()
	t.addOutcome(1, failed, shuffled, err)
	t.addWindow(d, u0, u1, shuffled)
	return w.cleanup(res)
}

// check reads the reducers' part files in order and compares them with
// the input.
func (w *terasortJob) check(res *mapred.Result) error {
	var readers []io.Reader
	for _, p := range res.OutputFiles {
		r, err := w.fs.Open(p, "")
		if err != nil {
			return err
		}
		defer r.Close()
		readers = append(readers, r)
	}
	got, err := outputFingerprint(io.MultiReader(readers...))
	if err != nil {
		return err
	}
	if got != w.input {
		return fmt.Errorf("output holds %d records (fingerprint %x/%x), input %d (%x/%x)",
			got.n, got.sum, got.mix, w.input.n, w.input.sum, w.input.mix)
	}
	return nil
}

// cleanup deletes the job's output and map outputs so runs of many
// jobs keep a constant footprint.
func (w *terasortJob) cleanup(res *mapred.Result) error {
	var errs []error
	if res != nil {
		for _, p := range res.OutputFiles {
			errs = append(errs, w.fs.Delete(p))
		}
	}
	for _, n := range w.nodes {
		mofs, _ := filepath.Glob(filepath.Join(w.root, "work", n, "mof", "*"))
		for _, f := range mofs {
			errs = append(errs, os.Remove(f))
		}
	}
	return errors.Join(errs...)
}

func (w *terasortJob) counts() map[string]int64 {
	return map[string]int64{"merge.unsorted_segments": w.unsorted.Load()}
}

func (w *terasortJob) close() error {
	if w.eng != nil {
		return w.eng.Close()
	}
	return nil
}

// tracedProvider wraps the jbs-tcp provider to time the reduce side
// from outside: each Fetcher.Fetch, the deliver callback it runs, and
// the merger's AddSegment and Finish.
type tracedProvider struct {
	mapred.ShuffleProvider
	w *terasortJob
}

func (p *tracedProvider) NewFetcher(node string, addrOf func(string) (string, error)) (mapred.Fetcher, error) {
	f, err := p.ShuffleProvider.NewFetcher(node, addrOf)
	if err != nil {
		return nil, err
	}
	return &tracedFetcher{Fetcher: f, w: p.w}, nil
}

func (p *tracedProvider) NewMerger(spillDir string) (merge.Merger, error) {
	m, err := p.ShuffleProvider.NewMerger(spillDir)
	if err != nil {
		return nil, err
	}
	// The engine names a reducer's spill directory after the reduce task.
	return &tracedMerger{Merger: m, w: p.w, reduceID: filepath.Base(spillDir)}, nil
}

type tracedFetcher struct {
	mapred.Fetcher
	w *terasortJob
}

func (f *tracedFetcher) Fetch(reduceTask string, segs []mapred.SegmentID, deliver func(mapred.SegmentID, []byte) error) error {
	w := f.w
	tr := w.tr
	id := w.nextID.Add(1)
	fs := tr.begin("reduce.fetch", id, w.jobSpan.Load())
	start := time.Now()
	err := f.Fetcher.Fetch(reduceTask, segs, func(s mapred.SegmentID, data []byte) error {
		ds := tr.begin("merger.deliver", id, fs)
		if ds >= 0 {
			w.mu.Lock()
			w.deliverSpan[reduceTask] = fetchRef{id: id, span: ds}
			w.mu.Unlock()
		}
		err := deliver(s, data)
		tr.end(ds)
		return err
	})
	d := time.Since(start)
	tr.end(fs)
	w.mu.Lock()
	w.columns[reduceTask] += d
	w.mu.Unlock()
	return err
}

type tracedMerger struct {
	merge.Merger
	w        *terasortJob
	reduceID string
}

func (m *tracedMerger) AddSegment(data []byte) error {
	tr := m.w.tr
	s := int32(-1)
	if tr.enabled() {
		m.w.mu.Lock()
		ref, ok := m.w.deliverSpan[m.reduceID]
		m.w.mu.Unlock()
		if !ok {
			ref.span = -1
		}
		s = tr.begin("merge.add_segment", ref.id, ref.span)
	}
	err := m.Merger.AddSegment(data)
	tr.end(s)
	return err
}

func (m *tracedMerger) Finish() (*merge.Iterator, error) {
	s := m.w.tr.begin("merge.finish", 0, m.w.jobSpan.Load())
	it, err := m.Merger.Finish()
	m.w.tr.end(s)
	m.w.unsorted.Add(int64(m.Merger.Stats().UnsortedSegments))
	return it, err
}

// fingerprint identifies a multiset of Terasort records: their count and
// two order-independent sums of per-record 64-bit hashes.
type fingerprint struct {
	n, sum, mix uint64
}

func (f *fingerprint) add(rec []byte) {
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range rec {
		h ^= uint64(b)
		h *= 1099511628211
	}
	f.n++
	f.sum += h
	// splitmix64's finalizer, so the second sum is not a linear function
	// of the first.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	f.mix += h
}

// inputFingerprint reads fixed-width Terasort records.
func inputFingerprint(r io.Reader) (fingerprint, error) {
	var f fingerprint
	rec := make([]byte, workload.TeraRecordLen)
	for {
		if _, err := io.ReadFull(r, rec); err == io.EOF {
			return f, nil
		} else if err != nil {
			return f, fmt.Errorf("input: %w", err)
		}
		f.add(rec)
	}
}

// outputFingerprint reads "key\tvalue\n" lines, checks that keys never
// decrease, and fingerprints each line's record (key then value).
func outputFingerprint(r io.Reader) (fingerprint, error) {
	var f fingerprint
	const lineLen = workload.TeraRecordLen + 2
	line := make([]byte, lineLen)
	rec := make([]byte, workload.TeraRecordLen)
	prev := make([]byte, workload.TeraKeyLen)
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, line); err == io.EOF {
			return f, nil
		} else if err != nil {
			return f, fmt.Errorf("output line %d: %w", i, err)
		}
		if line[workload.TeraKeyLen] != '\t' || line[lineLen-1] != '\n' {
			return f, fmt.Errorf("output line %d is malformed: %q", i, line)
		}
		key := line[:workload.TeraKeyLen]
		if i > 0 && bytes.Compare(key, prev) < 0 {
			return f, fmt.Errorf("output line %d: key %q sorts before the previous %q", i, key, prev)
		}
		copy(prev, key)
		copy(rec, key)
		copy(rec[workload.TeraKeyLen:], line[workload.TeraKeyLen+1:lineLen-1])
		f.add(rec)
	}
}
