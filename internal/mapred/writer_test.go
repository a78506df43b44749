package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/merge"
	"repro/internal/mof"
)

// testRecords generates a seeded, deliberately unsorted record stream
// with duplicate keys (distinct values), leaving some partitions empty.
func testRecords(n, partitions int, valueBytes int) []mof.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]mof.Record, 0, n)
	for i := 0; i < n; i++ {
		// Duplicate keys every few records so stable-order parity is
		// actually exercised.
		key := fmt.Sprintf("key-%05d", rng.Intn(n/4+1))
		val := make([]byte, valueBytes)
		rng.Read(val)
		copy(val, fmt.Sprintf("v%d-", i)) // distinct values per emit
		recs = append(recs, mof.Record{Key: []byte(key), Value: val})
	}
	return recs
}

// sealToMOF runs one record stream through the given writer strategy and
// returns the final MOF paths.
func sealToMOF(t *testing.T, s WriterStrategy, recs []mof.Record, partitions int, compress bool, sortMem int64) MOFPaths {
	t.Helper()
	dir := t.TempDir()
	w, err := NewShuffleWriter(s, WriterConfig{
		Partitions: partitions,
		SortMemory: sortMem,
		Dir:        dir,
		TaskID:     "t0-a0",
		Compress:   compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		p := HashPartitioner(r.Key, partitions)
		if err := w.Add(p, r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	final := MOFPaths{
		Data:  filepath.Join(dir, "final.data"),
		Index: filepath.Join(dir, "final.index"),
	}
	if err := w.Seal(final); err != nil {
		t.Fatal(err)
	}
	return final
}

// readNormalized reads one MOF partition through the real read path —
// index, stored segment bytes, checksum verify + decompress, reduce-side
// normalization — and returns its records.
func readNormalized(t *testing.T, paths MOFPaths, partition int) []mof.Record {
	t.Helper()
	ix, err := mof.ReadIndex(paths.Index)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Entry(partition)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := mof.ReadSegmentBytes(paths.Data, e)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mof.DecodeSegmentBytes(stored, e)
	if err != nil {
		t.Fatal(err)
	}
	norm, _, err := merge.NormalizeSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mof.ParseRecords(norm)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWritersProduceEquivalentMOFs is the MOF-level parity check: the
// same record stream through every strategy must serve identical
// normalized segments for every partition, spilled or not, compressed or
// not.
func TestWritersProduceEquivalentMOFs(t *testing.T) {
	const partitions = 5 // hash leaves at least one partition empty for this stream
	recs := testRecords(400, partitions, 24)
	cases := []struct {
		name     string
		compress bool
		sortMem  int64
	}{
		{"plain", false, 0},
		{"compressed", true, 0},
		{"spilling", false, 2048}, // sort writers spill multiple runs; bypass streams
		{"compressed-spilling", true, 2048},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := sealToMOF(t, WriterSortSpill, recs, partitions, tc.compress, tc.sortMem)
			for _, s := range []WriterStrategy{WriterBypass, WriterSortMerge} {
				other := sealToMOF(t, s, recs, partitions, tc.compress, tc.sortMem)
				for p := 0; p < partitions; p++ {
					want := readNormalized(t, base, p)
					got := readNormalized(t, other, p)
					if len(want) != len(got) {
						t.Fatalf("%s partition %d: %d records, want %d", s, p, len(got), len(want))
					}
					for i := range want {
						if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
							t.Fatalf("%s partition %d record %d differs: key %q vs %q", s, p, i, got[i].Key, want[i].Key)
						}
					}
				}
			}
		})
	}
}

// TestWriterEndToEndParity runs the same seeded job through the full
// engine once per strategy and requires byte-identical reduce output: the
// read path must not be able to tell which writer produced the MOFs.
func TestWriterEndToEndParity(t *testing.T) {
	input := strings.Repeat("cherry apple banana apple date banana apple elder fig grape\n", 120)
	run := func(s WriterStrategy) string {
		fs, c := testCluster(t, 3, 2048)
		putFile(t, fs, "/in", input)
		job := wordCountJob("/in", "/out-"+string(s), 4)
		job.Combine = nil // keep every strategy eligible
		job.Writer = s
		job.SortMemory = 1024 // exercise the sort writers' spill paths too
		res, err := c.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return catOutputs(t, fs, res)
	}
	base := run(WriterSortSpill)
	for _, s := range []WriterStrategy{WriterBypass, WriterSortMerge} {
		if out := run(s); out != base {
			t.Fatalf("writer %s changed job output", s)
		}
	}
}

// TestSortMergeWriterCombines checks the shared-arena writer's combiner
// path end to end, including across spilled runs.
func TestSortMergeWriterCombines(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	putFile(t, fs, "/in", strings.Repeat("dup dup dup dup other\n", 150))
	sum := func(key []byte, values [][]byte, emit Emit) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		emit(key, []byte(strconv.Itoa(total)))
		return nil
	}
	job := wordCountJob("/in", "/out", 2)
	job.Combine = sum
	job.Reduce = sum
	job.Writer = WriterSortMerge
	job.SortMemory = 256 // force run spills with the combiner active
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CombineInputs == 0 || res.Counters.MapSpills == 0 {
		t.Fatalf("expected combining and spills: %+v", res.Counters)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["dup"] != 600 || counts["other"] != 150 {
		t.Fatalf("wrong counts: %v", counts)
	}
}

func TestSelectWriter(t *testing.T) {
	mk := func(reducers int, combine bool, recBytes int64, override WriterStrategy) *Job {
		j := &Job{NumReducers: reducers, ExpectedRecordBytes: recBytes, Writer: override}
		if combine {
			j.Combine = func(k []byte, vs [][]byte, emit Emit) error { return nil }
		}
		return j
	}
	cases := []struct {
		name string
		job  *Job
		want WriterStrategy
	}{
		{"small-no-combine", mk(4, false, 0, WriterAuto), WriterBypass},
		{"at-bypass-limit", mk(DefaultBypassMaxPartitions, false, 0, WriterAuto), WriterBypass},
		{"small-records-hint", mk(8, false, 100, WriterAuto), WriterBypass},
		{"large-records", mk(8, false, DefaultBypassMaxRecordBytes+1, WriterAuto), WriterSortSpill},
		{"combine-no-hint", mk(4, true, 0, WriterAuto), WriterSortSpill},
		{"combine-tiny-records", mk(4, true, DefaultSortMergeMaxRecordBytes, WriterAuto), WriterSortMerge},
		{"combine-mid-records", mk(4, true, DefaultSortMergeMaxRecordBytes+1, WriterAuto), WriterSortSpill},
		{"combine-wide", mk(DefaultSortMergeMaxPartitions+1, true, 64, WriterAuto), WriterSortSpill},
		{"wide", mk(256, false, 0, WriterAuto), WriterSortSpill},
		{"mid", mk(DefaultBypassMaxPartitions+1, false, 0, WriterAuto), WriterSortSpill},
		{"override", mk(4, false, 0, WriterSortMerge), WriterSortMerge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := SelectWriter(tc.job)
			if d.Strategy != tc.want {
				t.Fatalf("selected %q (%s), want %q", d.Strategy, d.Reason, tc.want)
			}
			if d.Reason == "" {
				t.Fatal("decision carries no reason")
			}
			if tc.job.Writer != WriterAuto && !d.Override {
				t.Fatal("explicit strategy not flagged as override")
			}
		})
	}
}

func TestJobValidateWriter(t *testing.T) {
	base := func() *Job {
		return &Job{
			Name: "v", Input: "/i", Output: "/o", NumReducers: 2,
			Map: func(k, v []byte, emit Emit) error { return nil },
		}
	}
	j := base()
	j.Writer = "made-up"
	if err := j.Validate(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	j = base()
	j.Writer = WriterBypass
	j.Combine = func(k []byte, vs [][]byte, emit Emit) error { return nil }
	if err := j.Validate(); err == nil {
		t.Fatal("bypass with combiner accepted")
	}
	j = base()
	j.ExpectedRecordBytes = -1
	if err := j.Validate(); err == nil {
		t.Fatal("negative record size accepted")
	}
	j = base()
	j.Writer = WriterSortMerge
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewShuffleWriterRejects(t *testing.T) {
	cfg := WriterConfig{Partitions: 2, Dir: t.TempDir(), TaskID: "t"}
	if _, err := NewShuffleWriter("nope", cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := NewShuffleWriter(WriterAuto, cfg); err == nil {
		t.Fatal("auto accepted as a concrete writer")
	}
	bad := cfg
	bad.Partitions = 0
	if _, err := NewShuffleWriter(WriterBypass, bad); err == nil {
		t.Fatal("zero partitions accepted")
	}
	withCombine := cfg
	withCombine.Combine = func(k []byte, vs [][]byte, emit Emit) error { return nil }
	if _, err := NewShuffleWriter(WriterBypass, withCombine); err == nil {
		t.Fatal("bypass with combiner accepted")
	}
}

// TestWriterAbortCleansScratch aborts every strategy mid-flight (after
// forcing spills / open partition files) and requires an empty scratch
// directory.
func TestWriterAbortCleansScratch(t *testing.T) {
	recs := testRecords(200, 4, 32)
	for _, s := range []WriterStrategy{WriterSortSpill, WriterBypass, WriterSortMerge} {
		t.Run(string(s), func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewShuffleWriter(s, WriterConfig{
				Partitions: 4,
				SortMemory: 512,
				Dir:        dir,
				TaskID:     "t0-a0",
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := w.Add(HashPartitioner(r.Key, 4), r.Key, r.Value); err != nil {
					t.Fatal(err)
				}
			}
			w.Abort()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("abort left %d scratch files (first: %s)", len(ents), ents[0].Name())
			}
		})
	}
}

// TestLastWriterDecision checks the /debug/jbs feed: running a job
// records its selection inputs.
func TestLastWriterDecision(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	putFile(t, fs, "/in", "a b c d\n")
	job := wordCountJob("/in", "/out", 3)
	job.Combine = nil
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	d, ok := LastWriterDecision()
	if !ok {
		t.Fatal("no decision recorded")
	}
	if d.Partitions != 3 || d.Combine || d.Override {
		t.Fatalf("decision inputs wrong: %+v", d)
	}
	if d.Strategy != WriterBypass {
		t.Fatalf("3 reducers without combiner selected %q", d.Strategy)
	}
}

// sealBypassFiles runs recs through a bypass writer and returns the
// sealed data and index bytes plus the writer's spill count.
func sealBypassFiles(t *testing.T, recs []mof.Record, partitions int, compress bool, sortMem int64) (data, index []byte, spills int64) {
	t.Helper()
	before := writerInstrumentsFor[WriterBypass].spills.Load()
	final := sealToMOF(t, WriterBypass, recs, partitions, compress, sortMem)
	spills = writerInstrumentsFor[WriterBypass].spills.Load() - before
	data, err := os.ReadFile(final.Data)
	if err != nil {
		t.Fatal(err)
	}
	index, err = os.ReadFile(final.Index)
	if err != nil {
		t.Fatal(err)
	}
	return data, index, spills
}

// TestBypassSpillByteIdentical spills the bypass writer mid-partition (a
// budget far below one partition's bytes) and requires the sealed MOF to
// be byte-identical to the unbounded, never-spilling run: a segment's
// file prefix plus in-memory tail is the same byte stream either way.
func TestBypassSpillByteIdentical(t *testing.T) {
	cases := []struct {
		compress   bool
		partitions int
		recs       []mof.Record
	}{
		{false, 5, testRecords(400, 5, 24)},
		// flate emits a block per 64 KiB of input, so the compressed
		// case needs several blocks per partition to spill mid-segment.
		{true, 2, testRecords(3000, 2, 200)},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("compress=%v", tc.compress), func(t *testing.T) {
			wantData, wantIndex, spills := sealBypassFiles(t, tc.recs, tc.partitions, tc.compress, 0)
			if spills != 0 {
				t.Fatalf("unbounded writer spilled %d times", spills)
			}
			gotData, gotIndex, spills := sealBypassFiles(t, tc.recs, tc.partitions, tc.compress, 300)
			if spills < 2*int64(tc.partitions) {
				t.Fatalf("tiny budget spilled %d times; the test needs spills mid-partition", spills)
			}
			if !bytes.Equal(gotData, wantData) {
				t.Fatalf("spilled MOF data differs (%d vs %d bytes)", len(gotData), len(wantData))
			}
			if !bytes.Equal(gotIndex, wantIndex) {
				t.Fatal("spilled MOF index differs")
			}
		})
	}
}

// TestBypassNoSpillCreatesOnlyMOF checks the unbounded bypass path
// touches the filesystem only to seal: no scratch file before Seal, and
// exactly the data and index after it.
func TestBypassNoSpillCreatesOnlyMOF(t *testing.T) {
	const partitions = 4
	dir := t.TempDir()
	w, err := NewShuffleWriter(WriterBypass, WriterConfig{Partitions: partitions, Dir: dir, TaskID: "t0-a0"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(300, partitions, 64) {
		if err := w.Add(HashPartitioner(r.Key, partitions), r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d files in the scratch dir before Seal (first: %s)", len(ents), ents[0].Name())
	}
	final := MOFPaths{Data: filepath.Join(dir, "final.data"), Index: filepath.Join(dir, "final.index")}
	if err := w.Seal(final); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != "final.data,final.index" {
		t.Fatalf("after Seal the dir holds %v, want only the data and index", names)
	}
}

// TestBypassBufferedWithinBudget checks the memory bound: after every
// Add the bypass writer holds at most SortMemory plus the one record it
// just encoded.
func TestBypassBufferedWithinBudget(t *testing.T) {
	const partitions, budget = 4, 1000
	w, err := NewShuffleWriter(WriterBypass, WriterConfig{
		Partitions: partitions, SortMemory: budget, Dir: t.TempDir(), TaskID: "t0-a0",
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := w.(*bypassWriter)
	peak := int64(0)
	for _, r := range testRecords(500, partitions, 40) {
		if err := w.Add(HashPartitioner(r.Key, partitions), r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
		if limit := int64(budget + r.Size()); bw.buffered > limit {
			t.Fatalf("writer buffers %d bytes, budget plus one record is %d", bw.buffered, limit)
		}
		peak = max(peak, bw.buffered)
	}
	if peak < budget/2 {
		t.Fatalf("buffer never filled (peak %d bytes): the bound was not exercised", peak)
	}
	w.Abort()
}

// TestBypassSpillCounters runs a bypass job under a tiny SortMemory and
// requires its spills in both the job counters and the strategy's spill
// metric.
func TestBypassSpillCounters(t *testing.T) {
	fs, c := testCluster(t, 2, 4096)
	putFile(t, fs, "/in", strings.Repeat("cherry apple banana apple date\n", 200))
	job := wordCountJob("/in", "/out", 3)
	job.Combine = nil
	job.Writer = WriterBypass
	job.SortMemory = 256
	before := writerInstrumentsFor[WriterBypass].spills.Load()
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	metric := writerInstrumentsFor[WriterBypass].spills.Load() - before
	if res.Counters.MapSpills == 0 || res.Counters.MapSpilledBytes == 0 {
		t.Fatalf("bypass spills missing from job counters: %+v", res.Counters)
	}
	if metric < res.Counters.MapSpills {
		t.Fatalf("spill metric rose by %d, job counted %d spills", metric, res.Counters.MapSpills)
	}
	counts := parseCounts(t, catOutputs(t, fs, res))
	if counts["apple"] != 400 || counts["date"] != 200 {
		t.Fatalf("wrong counts: %v", counts)
	}
}
