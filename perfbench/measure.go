package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is the process's cumulative CPU time and heap allocation count.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64        // runtime.MemStats.Mallocs
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// cpuTicks returns the machine's stolen and total CPU ticks from the
// summary line of /proc/stat.
func cpuTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// that may follow are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set. Where the kernel cannot, the mark stays the
// process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes is the resident-set high-water mark since the last
// resetPeakRSS.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss * 1024 // Linux reports KiB
}

// A phase's rounds are grouped into slices of at least sliceMin, and a
// slice during which a hypervisor gave more than stolenMax of the
// machine's CPU time to other guests is left out of the round and fetch
// metrics, as long as at least a quarter of the slices are kept;
// otherwise the least-stolen quarter is kept. Such a slice measures the
// neighbours, not the shuffle: one 10 ms tick stolen from a 5 ms fetch
// makes a tail sample. Half a second holds 100 /proc/stat ticks per CPU,
// so stolenMax lets a two-CPU slice lose at most two ticks.
const (
	sliceMin  = 500 * time.Millisecond
	stolenMax = 0.02
)

// round is one timed grid round or job.
type round struct {
	d        time.Duration
	rate     float64         // verified MB per second
	cpuPerMB float64         // CPU ms per verified MB
	fetches  []time.Duration // its reducer fetch times
}

// slice is a run of consecutive rounds of one setup.
type slice struct {
	setup  int
	rounds []round
	stolen float64 // share of the machine's CPU time stolen meanwhile
}

// tally accumulates what the timed rounds of a run's phases did. The
// fetch workloads' callers add to it concurrently.
type tally struct {
	mu      sync.Mutex
	slices  []slice
	open    slice // rounds of the slice in progress
	opened  time.Time
	steal0  int64 // /proc/stat ticks when the open slice began
	total0  int64
	pending []time.Duration // fetch times of the round in progress
	setups  int             // setups ended

	wall      time.Duration // summed round windows
	mallocs   uint64        // heap allocations over the round windows
	bytes     int64         // verified shuffled payload bytes
	attempted int64
	failed    int64
	firstErr  error
}

func (t *tally) addFetch(d time.Duration) {
	t.mu.Lock()
	t.pending = append(t.pending, d)
	t.mu.Unlock()
}

// addOutcome records n attempted units of which failed did not verify,
// carrying good verified bytes.
func (t *tally) addOutcome(n, failed, good int64, err error) {
	t.mu.Lock()
	t.attempted += n
	t.failed += failed
	t.bytes += good
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// verified returns the verified bytes recorded so far.
func (t *tally) verified() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// beginSlice starts a slice; a phase calls it before its first round.
func (t *tally) beginSlice() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginSliceLocked()
}

func (t *tally) beginSliceLocked() {
	t.opened = time.Now()
	t.steal0, t.total0, _ = cpuTicks() // unreadable: every slice reads unstolen
}

// endSliceLocked closes the open slice, if it holds rounds.
func (t *tally) endSliceLocked() {
	if len(t.open.rounds) == 0 {
		return
	}
	steal1, total1, _ := cpuTicks()
	t.open.setup = t.setups
	t.open.stolen = ratio(float64(steal1-t.steal0), float64(total1-t.total0))
	t.slices = append(t.slices, t.open)
	t.open = slice{}
}

// addWindow records one timed round that verified bytes, with the
// resources it used and the fetch times added since the last round.
func (t *tally) addWindow(d time.Duration, before, after usage, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mb := float64(bytes) / 1e6
	t.open.rounds = append(t.open.rounds, round{d: d, rate: ratio(mb, d.Seconds()),
		cpuPerMB: ratio(ms(after.cpu-before.cpu), mb), fetches: t.pending})
	t.pending = nil
	t.wall += d
	t.mallocs += after.mallocs - before.mallocs
	if time.Since(t.opened) >= sliceMin {
		t.endSliceLocked()
		t.beginSliceLocked()
	}
}

// endSetup closes the setup's last slice.
func (t *tally) endSetup() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endSliceLocked()
	t.setups++
}

// kept returns the slices the round and fetch metrics come from, in
// order, and how many were left out.
func (t *tally) kept() (kept []slice, leftOut int) {
	for _, s := range t.slices {
		if s.stolen <= stolenMax {
			kept = append(kept, s)
		}
	}
	if 4*len(kept) >= len(t.slices) {
		return kept, len(t.slices) - len(kept)
	}
	order := make([]int, len(t.slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return t.slices[order[i]].stolen < t.slices[order[j]].stolen })
	order = order[:(len(order)+3)/4]
	sort.Ints(order)
	kept = nil
	for _, i := range order {
		kept = append(kept, t.slices[i])
	}
	return kept, len(t.slices) - len(kept)
}

// roundStats returns the kept rounds' durations, rates and CPU costs,
// and their fetch times grouped by setup.
func roundStats(kept []slice) (ds []time.Duration, rates, cpuPerMB []float64, fetches [][]time.Duration) {
	for _, s := range kept {
		for len(fetches) <= s.setup {
			fetches = append(fetches, nil)
		}
		for _, r := range s.rounds {
			ds = append(ds, r.d)
			rates = append(rates, r.rate)
			cpuPerMB = append(cpuPerMB, r.cpuPerMB)
			fetches[s.setup] = append(fetches[s.setup], r.fetches...)
		}
	}
	return ds, rates, cpuPerMB, fetches
}

// rounds counts the tally's rounds and fetch samples.
func (t *tally) rounds() (rounds, fetches int) {
	for _, s := range t.slices {
		rounds += len(s.rounds)
		for _, r := range s.rounds {
			fetches += len(r.fetches)
		}
	}
	return rounds, fetches
}

// merge folds o's outcomes into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// fetchQuantile is the median, over windows of consecutive Fetch
// samples, of each window's q-quantile of Fetch time, so that a burst of
// contention from outside the process, which slows the windows it falls
// in, does not move the result. A window holds enough samples to leave
// at least ten beyond the quantile and never spans two setups; a setup
// with fewer samples than that is one window.
func fetchQuantile(bySetup [][]time.Duration, q float64) time.Duration {
	per := int(math.Ceil(10 / (1 - q)))
	var qs []float64
	for _, fs := range bySetup {
		n := max(1, len(fs)/per)
		for i := 0; i < n; i++ {
			if w := fs[len(fs)*i/n : len(fs)*(i+1)/n]; len(w) > 0 {
				qs = append(qs, float64(quantile(w, q)))
			}
		}
	}
	return time.Duration(median(qs))
}

// mb is the tally's verified payload in MB (10^6 bytes).
func (t *tally) mb() float64 { return float64(t.bytes) / 1e6 }

// median returns the median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
