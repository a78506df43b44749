package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) (stamp, result) {
	t.Helper()
	st, res, err := run(config{workload: workload, seed: 7, seconds: 0.3, trace: trace,
		work: t.TempDir(), tiny: true, corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return st, res
}

// TestWorkloadsEmitEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that the result is correct and that its last
// printed line carries exactly the metrics BENCHMARK.json names, with
// their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			st, res := tinyRun(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %s", w, trace, res.Correct, res.Failed, res.Attempted, st.Error)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := lastLine(t, st, res)
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, trace, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, m.Name, g.Value)
				case !trace && g.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, g.Value)
				}
			}
			if trace {
				checkLayers(t, w, got.Metrics)
			}
		}
	}
}

// lastLine prints a result and parses its last line back, checking it
// has exactly the four top-level keys.
func lastLine(t *testing.T, st stamp, res result) result {
	t.Helper()
	var buf bytes.Buffer
	printResult(&buf, st, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	var k []string
	for n := range keys {
		k = append(k, n)
	}
	sort.Strings(k)
	if fmt.Sprint(k) != "[attempted correct failed metrics]" {
		t.Errorf("last line keys %v", k)
	}
	var got result
	if err := json.Unmarshal(last, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkLayers checks that the layers a workload exercises show work and
// the ones BENCHMARK.json says it leaves idle read zero.
func checkLayers(t *testing.T, w string, m map[string]metric) {
	t.Helper()
	busy := map[string][]string{
		"stream-hot":    {"transport.frames", "merger.fetches", "merger.deliver_busy_s", "datacache.hit_ratio"},
		"registry-cold": {"registry.resolve_calls", "mof.segment_reads", "supplier.requests", "transport.frames"},
		"terasort-job":  {"merge.add_segment_busy_s", "writer.seal_busy_s", "reduce.fetch_busy_s", "mof.segment_reads"},
	}[w]
	idle := map[string][]string{
		"stream-hot": {"mof.segment_reads", "registry.resolve_calls", "flow.admitted_bytes", "hedge.launched",
			"merge.add_segment_busy_s", "writer.seal_busy_s"},
		"registry-cold": {"merge.add_segment_busy_s", "writer.seal_busy_s"},
		"terasort-job":  {"registry.resolve_calls", "flow.admitted_bytes", "hedge.launched"},
	}[w]
	for _, n := range busy {
		if m[n].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w, n, m[n].Value)
		}
	}
	for _, n := range idle {
		if m[n].Value != 0 {
			t.Errorf("%s: %s = %v, want 0 on a workload that leaves it idle", w, n, m[n].Value)
		}
	}
	if f := m["unattributed_frac"].Value; f < 0 || f > 1 {
		t.Errorf("%s: unattributed_frac %v outside [0, 1]", w, f)
	}
}

// TestCorruptSegmentIsCaught checks that a fetched segment differing from
// the fixture by one byte fails the run.
func TestCorruptSegmentIsCaught(t *testing.T) {
	for _, w := range []string{"stream-hot", "registry-cold"} {
		st, res := tinyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 || !strings.Contains(st.Error, "differ") {
			t.Errorf("%s with a corrupt segment: correct=%v failed=%d error %q", w, res.Correct, res.Failed, st.Error)
		}
	}
}

// TestTerasortOutputCheck checks that the output check accepts a sorted
// permutation of the input and rejects unsorted, altered or short output.
func TestTerasortOutputCheck(t *testing.T) {
	keys := []string{"delta00000", "alpha00000", "charlie000", "bravo00000", "alpha00000"}
	var input bytes.Buffer
	for i, k := range keys {
		fmt.Fprintf(&input, "%s%090d", k, i)
	}
	want, err := inputFingerprint(&input)
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) string { return fmt.Sprintf("%s\t%090d\n", keys[i], i) }
	sorted := []int{1, 4, 3, 2, 0}
	out := func(order []int, edit func(string) string) string {
		var b strings.Builder
		for _, i := range order {
			b.WriteString(line(i))
		}
		if edit != nil {
			return edit(b.String())
		}
		return b.String()
	}
	for _, c := range []struct {
		name, output string
		ok           bool
	}{
		{"sorted", out(sorted, nil), true},
		{"equal keys swapped", out([]int{4, 1, 3, 2, 0}, nil), true},
		{"unsorted", out([]int{1, 4, 2, 3, 0}, nil), false},
		{"altered value", out(sorted, func(s string) string { return strings.Replace(s, "0\n", "1\n", 1) }), false},
		{"record missing", out(sorted[1:], nil), false},
		{"record duplicated", out(append([]int{1}, sorted...), nil), false},
	} {
		got, err := outputFingerprint(strings.NewReader(c.output))
		ok := err == nil && got == want
		if ok != c.ok {
			t.Errorf("%s: accepted=%v (err %v), want %v", c.name, ok, err, c.ok)
		}
	}
}

// TestSelfTime checks self time against overlapping children, a child
// outliving its parent, and a span never ended.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.beginAt("root", 0, -1, 0)
	a := tr.beginAt("child", 1, root, 10)
	b := tr.beginAt("child", 1, root, 30)
	late := tr.beginAt("child", 1, root, 90)
	tr.beginAt("open", 1, root, 60)
	tr.endAt(a, 40)
	tr.endAt(b, 50)
	tr.endAt(root, 100)
	tr.endAt(late, 120)
	s := tr.summarize()
	if got, want := s["root"].self, 60*time.Nanosecond; got != want {
		t.Errorf("root self %v, want %v", got, want)
	}
	if got, want := s["child"].busy, 80*time.Nanosecond; got != want {
		t.Errorf("child busy %v, want %v", got, want)
	}
	if s["open"].count != 0 {
		t.Errorf("open span counted: %+v", s["open"])
	}
}

// TestStolenSlicesLeftOut checks which slices the round and fetch metrics
// come from: every clean one while they are at least a quarter, otherwise
// the least-stolen quarter, in their original order.
func TestStolenSlicesLeftOut(t *testing.T) {
	for _, c := range []struct {
		stolen []float64
		want   string // setups of the kept slices
	}{
		{[]float64{0, 0.01, 0.3, 0.02}, "[0 1 3]"},
		{[]float64{0.3, 0.2, 0.01, 0.1}, "[2]"},
		{[]float64{0.2, 0.05, 0.3, 0.1, 0.04, 0.5, 0.06, 0.4}, "[1 4]"},
		{[]float64{0.2, 0.3, 0.1}, "[2]"},
	} {
		var tl tally
		for i, s := range c.stolen {
			tl.slices = append(tl.slices, slice{setup: i, stolen: s})
		}
		kept, leftOut := tl.kept()
		var got []int
		for _, s := range kept {
			got = append(got, s.setup)
		}
		if fmt.Sprint(got) != c.want || leftOut != len(c.stolen)-len(got) {
			t.Errorf("stolen %v: kept %v (%d left out), want %s", c.stolen, got, leftOut, c.want)
		}
	}
}
