package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file. Every span
// counts in the summary; a registry-cold run makes millions.
const maxKeptSpans = 1 << 18

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	name   string
	id     uint64 // shared by every span of one reducer fetch; 0 outside a fetch
	parent int32  // handle of the span that caused this one, -1 for a root
	start  int64  // ns since the tracer's epoch
	end    int64  // -1 while open
}

// openSpan is a span not yet ended, with the intervals of the children
// that ended inside it.
type openSpan struct {
	span
	kept int32 // index in tracer.kept, or -1
	kids [][2]int64
}

// spanStat is what the spans of one name add up to.
type spanStat struct {
	count int64
	busy  time.Duration // summed durations
	self  time.Duration // summed durations minus the part children cover
}

// tracer records spans while it is on. It is off outside the traced
// phase of a traced run, and nil in an untraced run, so the calls below
// cost one nil check or one atomic load when tracing is not wanted. A
// span's self time is computed when it ends, from the children that
// ended before it; a child ending after its parent (a hedge launched as
// the fetch completes) is counted on its own but covers nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	next  int32
	open  map[int32]*openSpan
	stats map[string]*spanStat
	kept  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int32]*openSpan), stats: make(map[string]*spanStat)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its handle, or -1 when tracing is off.
func (t *tracer) begin(name string, id uint64, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	return t.beginAt(name, id, parent, int64(time.Since(t.epoch)))
}

// end closes the span begin returned; -1 is ignored.
func (t *tracer) end(h int32) {
	if h < 0 {
		return
	}
	t.endAt(h, int64(time.Since(t.epoch)))
}

func (t *tracer) beginAt(name string, id uint64, parent int32, now int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.next
	t.next++
	o := &openSpan{span: span{name: name, id: id, parent: parent, start: now, end: -1}, kept: -1}
	if len(t.kept) < maxKeptSpans {
		o.kept = int32(len(t.kept))
		t.kept = append(t.kept, o.span)
	}
	t.open[h] = o
	return h
}

func (t *tracer) endAt(h int32, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.open[h]
	if o == nil {
		return
	}
	delete(t.open, h)
	st := t.stats[o.name]
	if st == nil {
		st = &spanStat{}
		t.stats[o.name] = st
	}
	d := now - o.start
	st.count++
	st.busy += time.Duration(d)
	st.self += time.Duration(d - covered(o.kids, o.start, now))
	if p := t.open[o.parent]; p != nil {
		p.kids = append(p.kids, [2]int64{o.start, now})
	}
	if o.kept >= 0 {
		t.kept[o.kept].end = now
	}
}

// summarize returns each span name's count, busy and self time over the
// spans that ended.
func (t *tracer) summarize() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanStat, len(t.stats))
	for n, s := range t.stats {
		out[n] = *s
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the kept spans, one tab-separated line each: handle,
// name, id, parent handle, start ns, end ns (-1: never ended).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintln(w, "handle\tname\tid\tparent\tstart_ns\tend_ns")
	for i, s := range t.kept {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
