package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/mof"
)

// grid is the part the two fetch workloads share: a seeded tasks×parts
// MOF fixture, the reference bytes every fetched segment is compared
// with, and the reducer callers that fetch it through one NetMerger, one
// partition column per Fetch call.
type grid struct {
	tasks, parts, segBytes int
	seed                   uint64
	callers                int
	tr                     *tracer

	ref   [][]byte // ref[task*parts+part]
	task  map[string]int
	specs [][]core.FetchSpec // specs[part] is one reducer's partition column
	perm  []int
	rng   *rand.Rand
	m     *core.NetMerger

	// cur[part] is the fetch span of the Fetch call in flight on that
	// column, so callbacks the merger makes for it (resolve, replicas)
	// can name their parent. Set only while tracing.
	cur    []atomic.Pointer[fetchRef]
	nextID atomic.Uint64
}

type fetchRef struct {
	id   uint64
	span int32
}

// writeFixture writes the seeded MOF grid under dir and loads the
// reference copy of every segment straight from the files, located by
// their indexes.
func (g *grid) writeFixture(dir string) error {
	if err := daemon.WriteFixture(dir, g.tasks, g.parts, g.segBytes, g.seed); err != nil {
		return fmt.Errorf("write fixture: %w", err)
	}
	g.ref = make([][]byte, g.tasks*g.parts)
	g.task = make(map[string]int, g.tasks)
	for ti := 0; ti < g.tasks; ti++ {
		name := fmt.Sprintf("m-%05d", ti)
		g.task[name] = ti
		ix, err := mof.ReadIndex(filepath.Join(dir, name+".index"))
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".data"))
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		for p := 0; p < g.parts; p++ {
			e, err := ix.Entry(p)
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			if e.Offset < 0 || e.Length < 0 || e.Offset+e.Length > int64(len(data)) {
				return fmt.Errorf("reference: %s segment %d outside its %d-byte data file", name, p, len(data))
			}
			g.ref[ti*g.parts+p] = data[e.Offset : e.Offset+e.Length]
		}
	}
	g.cur = make([]atomic.Pointer[fetchRef], g.parts)
	g.perm = make([]int, g.parts)
	for i := range g.perm {
		g.perm[i] = i
	}
	g.rng = rand.New(rand.NewPCG(g.seed, 1))
	return nil
}

// buildSpecs makes each partition column's specs; addr is the static
// supplier address, or empty to have the merger's Resolver find it.
func (g *grid) buildSpecs(addr string) {
	g.specs = make([][]core.FetchSpec, g.parts)
	for p := range g.specs {
		for ti := 0; ti < g.tasks; ti++ {
			g.specs[p] = append(g.specs[p], core.FetchSpec{Addr: addr, MapTask: fmt.Sprintf("m-%05d", ti), Partition: p})
		}
	}
}

// parentOf returns the fetch span in flight for spec's column.
func (g *grid) parentOf(spec core.FetchSpec) (uint64, int32) {
	if r := g.cur[spec.Partition].Load(); r != nil {
		return r.id, r.span
	}
	return 0, -1
}

// round fetches every partition column once, in a seeded order, with
// g.callers reducers pulling columns until none are left. The round
// ends when its slowest column does, as a reduce wave would.
func (g *grid) round(t *tally) error {
	tr := g.tr
	g.rng.Shuffle(len(g.perm), func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	rs := tr.begin("grid.round", 0, -1)
	b0 := t.verified()
	u0 := readUsage()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < g.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(g.perm) {
					return
				}
				g.fetchColumn(g.perm[i], tr, rs, t)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	t.addWindow(d, u0, readUsage(), t.verified()-b0)
	tr.end(rs)
	return nil
}

// fetchColumn is one reducer's Fetch over partition part. Every
// delivered segment is compared byte for byte with the reference; a
// segment that is not delivered, or differs, counts as failed.
func (g *grid) fetchColumn(part int, tr *tracer, parent int32, t *tally) {
	specs := g.specs[part]
	id := g.nextID.Add(1)
	fs := tr.begin("merger.fetch", id, parent)
	if fs >= 0 {
		g.cur[part].Store(&fetchRef{id: id, span: fs})
	}
	var good, goodBytes int64
	start := time.Now()
	err := g.m.Fetch(specs, func(spec core.FetchSpec, data []byte) error {
		ds := tr.begin("merger.deliver", id, fs)
		defer tr.end(ds)
		ti, ok := g.task[spec.MapTask]
		if !ok || spec.Partition != part {
			return fmt.Errorf("delivered unrequested segment %s/%d", spec.MapTask, spec.Partition)
		}
		if !bytes.Equal(data, g.ref[ti*g.parts+spec.Partition]) {
			return fmt.Errorf("segment %s/%d: %d bytes differ from the fixture's %d",
				spec.MapTask, spec.Partition, len(data), len(g.ref[ti*g.parts+spec.Partition]))
		}
		good++
		goodBytes += int64(len(data))
		return nil
	})
	d := time.Since(start)
	g.cur[part].Store(nil)
	tr.end(fs)
	if err == nil && good != int64(len(specs)) {
		err = fmt.Errorf("column %d: %d of %d segments delivered", part, good, len(specs))
	}
	t.addFetch(d)
	t.addOutcome(int64(len(specs)), int64(len(specs))-good, goodBytes, err)
}
