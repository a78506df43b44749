// Command perfbench is the repository's shuffle benchmark. It runs one
// seeded workload on the real data path inside this process, over
// loopback TCP, checks every output, and prints its metrics: the
// end-to-end ones from an untraced run, or with --trace 1 the per-layer
// ones from a run whose second half records spans around the benchmark's
// calls into each layer. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before
// it stamps the run (git revision, Go version, CPUs, seed, samples).
//
// Build and run it from the repository root through the launcher:
//
//	bash perfbench/run.sh --workload stream-hot --seed 1 --seconds 20 --trace 0
//
// The workloads, and what each one leaves idle, are listed in
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/metrics"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch root; the run's files go in a subdirectory
	tiny     bool   // test-sized inputs
	// corrupt flips a byte of the first reference segment after the
	// fixture is written, so the byte comparison must fail (self-test).
	corrupt bool
}

// setups is how many times a run sets its workload up; each setup
// measures an equal share of the run, and setup_s is their median.
const setups = 3

// runner is one workload: a seeded input and the fleet that serves it.
type runner interface {
	// setup writes the inputs under dir, starts the fleet and warms it.
	setup(dir string) error
	// round runs one timed unit (a grid round or a job), checks its
	// output and records it in t. An error is a harness failure.
	round(t *tally) error
	// counts returns the workload's own cumulative counters.
	counts() map[string]int64
	// close stops the fleet and waits for it.
	close() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"stream-hot", "registry-cold", "terasort-job"}

func newWorkload(name string, seed uint64, tiny bool, tr *tracer) runner {
	switch name {
	case "stream-hot":
		return newStreamHot(seed, tiny, tr)
	case "registry-cold":
		return newRegistryCold(seed, tiny, tr)
	}
	return newTerasort(seed, tiny, tr)
}

// callers is the number of reducer goroutines the fetch workloads load
// the merger with: two, but never more than the machine's CPUs.
func callers() int { return min(2, runtime.NumCPU()) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp says what produced a result and how to read it.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Callers    int     `json:"callers"`
	Setups     int     `json:"setups"`
	Rounds     int     `json:"rounds"`
	Fetches    int     `json:"fetch_samples"`
	Spans      int     `json:"spans,omitempty"`
	// SlicesLeftOut counts the half-second slices of rounds left out of
	// the round and fetch metrics because a hypervisor stole the CPU.
	SlicesLeftOut int    `json:"slices_left_out"`
	Note          string `json:"note"`
	// StealFrac is the share of the machine's CPU time a hypervisor gave
	// to other guests during the run; -1 where /proc/stat is unreadable.
	StealFrac float64 `json:"cpu_steal_frac"`
	Error     string  `json:"error,omitempty"`
}

const note = "all traffic crossed loopback TCP inside one process, not a real link; " +
	"MOF and DFS reads hit the OS page cache, not a disk"

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for the run's scratch files and trace")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	steal0, total0, stealOK := cpuTicks()
	st, res, err := run(cfg)
	st.StealFrac = -1
	if steal1, total1, ok := cpuTicks(); ok && stealOK {
		st.StealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, st, res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs failed verification:", st.Error)
		os.Exit(1)
	}
}

// run sets the workload up setups times, measures each for an equal
// share of cfg.seconds, and computes the metrics. A traced run splits
// each share: an untraced half, for the tracing overhead, then a traced
// half that the per-layer metrics come from.
func run(cfg config) (stamp, result, error) {
	st := stamp{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GitRev: gitRev(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Callers: callers(), Setups: setups, Note: note}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		return st, result{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	dir, err := os.MkdirTemp(cfg.work, "run-"+cfg.workload+"-")
	if err != nil {
		return st, result{}, err
	}
	defer os.RemoveAll(dir)

	var (
		setupTimes       []time.Duration
		peakRSS          []float64 // each setup's, bytes
		untraced, traced tally
		layerDiff        []metrics.Snapshot
		ownCounts        = map[string]int64{}
		admittedSum      float64
		admittedSamples  int
		untracedFetches  int64 // segment fetches in the untraced halves
		share            = time.Duration(cfg.seconds * float64(time.Second) / setups)
	)
	for rep := 0; rep < setups; rep++ {
		w := newWorkload(cfg.workload, cfg.seed, cfg.tiny, tr)
		repDir := filepath.Join(dir, fmt.Sprintf("setup-%d", rep))
		if err := os.Mkdir(repDir, 0o755); err != nil {
			return st, result{}, err
		}
		// Hand what earlier setups freed back to the OS, so the peak
		// resident set measured below is this setup's own.
		debug.FreeOSMemory()
		resetPeakRSS()
		start := time.Now()
		err := w.setup(repDir)
		setupTimes = append(setupTimes, time.Since(start))
		if err == nil && cfg.corrupt {
			corruptReference(w)
		}
		if err == nil && !cfg.trace {
			err = phase(w, share, &untraced)
			untraced.endSetup()
			peakRSS = append(peakRSS, float64(peakRSSBytes()))
		}
		if err == nil && cfg.trace {
			f0 := mergerFetches.Load()
			err = phase(w, share/2, &untraced)
			untraced.endSetup()
			untracedFetches += mergerFetches.Load() - f0
			if err == nil {
				before, c0 := metrics.Default().Snapshot(), w.counts()
				stop := sampleAdmitted(&admittedSum, &admittedSamples)
				tr.on.Store(true)
				err = phase(w, share/2, &traced)
				tr.on.Store(false)
				stop()
				layerDiff = append(layerDiff, metrics.Diff(before, metrics.Default().Snapshot())...)
				for k, v := range w.counts() {
					ownCounts[k] += v - c0[k]
				}
			}
		}
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(repDir); err == nil {
			err = rerr
		}
		if err != nil {
			return st, result{}, fmt.Errorf("%s setup %d: %w", cfg.workload, rep, err)
		}
	}

	var all tally
	all.merge(&untraced)
	all.merge(&traced)
	st.Rounds, st.Fetches = untraced.rounds()
	res := result{
		Correct:   all.failed == 0 && all.attempted > 0,
		Attempted: all.attempted,
		Failed:    all.failed,
	}
	if all.firstErr != nil {
		st.Error = all.firstErr.Error()
	}
	if !cfg.trace {
		kept, leftOut := untraced.kept()
		st.SlicesLeftOut = leftOut
		res.Metrics = endToEnd(&untraced, kept, setupTimes, peakRSS)
		return st, res, nil
	}
	st.Rounds, st.Fetches = traced.rounds()
	spans := tr.summarize()
	for _, s := range spans {
		st.Spans += int(s.count)
	}
	res.Metrics = perLayer(layerInput{
		diff: layerDiff, own: ownCounts, spans: spans, traced: &traced, untraced: &untraced,
		all: &all, admittedMean: ratio(admittedSum, float64(admittedSamples)),
		untracedFetches: untracedFetches,
	})
	if err := tr.write(filepath.Join(cfg.work, "trace-"+cfg.workload+".tsv")); err != nil {
		return st, res, fmt.Errorf("write trace: %w", err)
	}
	return st, res, nil
}

// phase runs rounds until d has passed, and at least one.
func phase(w runner, d time.Duration, t *tally) error {
	deadline := time.Now().Add(d)
	t.beginSlice()
	for {
		if err := w.round(t); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// corruptReference flips one byte of a fetch workload's reference copy,
// so that fetches of that segment must fail the byte comparison.
func corruptReference(w runner) {
	var g *grid
	switch w := w.(type) {
	case *streamHot:
		g = &w.grid
	case *registryCold:
		g = &w.grid
	default:
		return
	}
	g.ref[0] = append([]byte(nil), g.ref[0]...)
	g.ref[0][len(g.ref[0])/2] ^= 0xff
}

// endToEnd computes the metrics a user of the shuffle sees.
func endToEnd(t *tally, kept []slice, setupTimes []time.Duration, peakRSS []float64) map[string]metric {
	rounds, rates, cpuPerMB, fetches := roundStats(kept)
	return map[string]metric{
		"job_s":               {quantile(rounds, 0.5).Seconds(), "s"},
		"shuffle_MBps":        {median(rates), "MB/s"},
		"reduce_fetch_p50_ms": {ms(fetchQuantile(fetches, 0.5)), "ms"},
		"reduce_fetch_p99_ms": {ms(fetchQuantile(fetches, 0.99)), "ms"},
		"cpu_ms_per_MB":       {median(cpuPerMB), "ms/MB"},
		"allocs_per_MB":       {ratio(float64(t.mallocs), t.mb()), "allocs/MB"},
		"peak_rss_MB":         {slices.Max(peakRSS) / 1e6, "MB"},
		"setup_s":             {quantile(setupTimes, 0.5).Seconds(), "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gitRev is the revision the binary was built from, when the build saw
// a git checkout.
func gitRev() string {
	rev, modified := "unknown (not built in a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}

// printResult writes a readable report, the stamp line, and the result
// line last.
func printResult(f io.Writer, st stamp, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v: %d rounds, %d fetch samples, %d/%d failed\n",
		st.Workload, st.Seed, st.Trace, st.Rounds, st.Fetches, res.Failed, res.Attempted)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, v := range []any{st, res} {
		b, err := json.Marshal(v)
		if err != nil {
			// Only a NaN or Inf metric can fail to marshal; that is a bug.
			panic(fmt.Sprintf("perfbench: marshal result: %v", err))
		}
		fmt.Fprintln(f, string(b))
	}
}
