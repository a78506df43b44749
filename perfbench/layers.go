package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// layerInput is what a traced run measured.
type layerInput struct {
	diff         []metrics.Snapshot // program counters over the traced phases
	own          map[string]int64   // the workload's own counters over them
	spans        map[string]spanStat
	traced       *tally
	untraced     *tally
	all          *tally
	admittedMean float64 // mean flow-ledger occupancy, bytes
	// untracedFetches is the merger's segment fetches in the untraced
	// halves, whose allocations carry no tracer's.
	untracedFetches int64
}

// spanNames are the spans the workloads record; every one gets a self
// time metric, zero where the workload does not make that call.
var spanNames = []string{
	"grid.round", "merger.fetch", "merger.deliver", "registry.resolve", "registry.replicas",
	"mapred.job", "reduce.fetch", "merge.add_segment", "merge.finish",
}

// counterSum is one program metric summed over label sets and setups.
type counterSum struct{ value, count, sum int64 }

// perLayer computes the per-layer metrics of a traced run.
func perLayer(in layerInput) map[string]metric {
	c := make(map[string]counterSum)
	for _, s := range in.diff {
		name := s.Name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		cs := c[name]
		cs.value += s.Value
		cs.count += s.Count
		cs.sum += s.Sum
		c[name] = cs
	}
	v := func(name string) float64 { return float64(c[name].value) }
	histCount := func(name string) float64 { return float64(c[name].count) }
	histSum := func(name string) float64 { return float64(c[name].sum) }
	span := func(name string) spanStat { return in.spans[name] }
	count := func(x float64) metric { return metric{x, "count"} }
	frac := func(x float64) metric { return metric{x, "ratio"} }
	secs := func(d time.Duration) metric { return metric{d.Seconds(), "s"} }
	meanUS := func(sum, n float64) metric { return metric{ratio(sum, n) / 1e3, "us"} }

	sentFrames := v("jbs_transport_sent_frames_total")
	ccHits, ccMisses := v("jbs_conncache_hits_total"), v("jbs_conncache_misses_total")
	fcHits, fcMisses := v("jbs_filecache_hits_total"), v("jbs_filecache_misses_total")
	dcHits, dcMisses := v("jbs_datacache_hits_total"), v("jbs_datacache_misses_total")
	mrgFetches := v("jbs_merger_fetches_total")
	hedges := v("jbs_merger_hedges_total")
	resolves, replicas := span("registry.resolve"), span("registry.replicas")
	gets := v("jbs_bufpool_gets_total")
	root := span("grid.round")
	if r := span("mapred.job"); r.count > 0 {
		root = r
	}

	m := map[string]metric{
		"transport.frames":               count(sentFrames),
		"transport.bytes_per_frame":      {ratio(v("jbs_transport_sent_bytes_total"), sentFrames), "B/frame"},
		"transport.send_busy_s":          secs(time.Duration(histSum("jbs_transport_send_ns"))),
		"transport.recv_busy_s":          secs(time.Duration(histSum("jbs_transport_recv_ns"))),
		"transport.conncache_miss_ratio": frac(ratio(ccMisses, ccHits+ccMisses)),

		"mof.segment_reads":       count(histCount("jbs_segment_read_ns")),
		"mof.read_us_mean":        meanUS(histSum("jbs_segment_read_ns"), histCount("jbs_segment_read_ns")),
		"mof.filecache_hit_ratio": frac(ratio(fcHits, fcHits+fcMisses)),
		"mof.filecache_evictions": count(v("jbs_filecache_evictions_total")),

		"datacache.hit_ratio": frac(ratio(dcHits, dcHits+dcMisses)),
		"datacache.evictions": count(v("jbs_datacache_evictions_total")),

		"supplier.requests":          count(v("jbs_supplier_requests_total")),
		"supplier.group_turns":       count(v("jbs_supplier_group_turns_total")),
		"supplier.requests_per_turn": {ratio(v("jbs_supplier_requests_total"), v("jbs_supplier_group_turns_total")), "req/turn"},
		"supplier.bytes_served":      {v("jbs_supplier_bytes_served_total"), "B"},
		"supplier.cancels":           count(v("jbs_supplier_cancels_total")),

		"merger.fetches":          count(mrgFetches),
		"merger.rtt_us_mean":      meanUS(histSum("jbs_merger_rtt_ns"), histCount("jbs_merger_rtt_ns")),
		"merger.retries":          count(v("jbs_merger_retries_total")),
		"merger.deadline_trips":   count(v("jbs_merger_deadline_trips_total")),
		"merger.rerouted":         count(v("jbs_merger_rerouted_total")),
		"merger.deliver_busy_s":   secs(span("merger.deliver").busy),
		"merger.allocs_per_fetch": {ratio(float64(in.untraced.mallocs), float64(in.untracedFetches)), "allocs/fetch"},

		"hedge.launched":        count(hedges),
		"hedge.win_ratio":       frac(ratio(v("jbs_merger_hedge_wins_total"), hedges)),
		"hedge.dup_bytes_ratio": frac(ratio(v("jbs_merger_hedge_duplicate_bytes_total"), v("jbs_merger_bytes_total"))),
		"hedge.budget_denied":   count(v("jbs_merger_hedge_budget_denied_total")),

		"flow.admitted_bytes": {in.admittedMean, "B"},
		"flow.sheds":          count(v("jbs_flow_sheds_total")),
		"flow.shed_retries":   count(v("jbs_merger_shed_retries_total")),
		"flow.queued":         count(v("jbs_flow_admit_queued_total")),
		"flow.credits":        count(v("jbs_flow_credits_total")),

		"registry.resolve_calls":      count(float64(resolves.count)),
		"registry.resolve_us_mean":    meanUS(float64(resolves.busy), float64(resolves.count)),
		"registry.server_lookups":     count(v("jbs_registry_lookups_total")),
		"registry.resolver_hit_ratio": frac(resolverHitRatio(in.own["registry.map_fetches"], resolves.count+replicas.count)),

		"merge.add_segment_busy_s": secs(span("merge.add_segment").busy),
		"merge.finish_busy_s":      secs(span("merge.finish").busy),
		"merge.unsorted_segments":  count(float64(in.own["merge.unsorted_segments"])),

		"writer.seal_busy_s":  secs(time.Duration(histSum("jbs_map_writer_seal_ns"))),
		"writer.sealed_bytes": {v("jbs_map_writer_sealed_bytes_total"), "B"},
		"writer.spills":       count(v("jbs_map_writer_spills_total")),
		"reduce.fetch_busy_s": secs(span("reduce.fetch").busy),

		"bufpool.gets":       count(gets),
		"bufpool.miss_ratio": frac(ratio(v("jbs_bufpool_misses_total"), gets)),
		"bufpool.oversize":   count(v("jbs_bufpool_oversize_total")),

		// The share of the rounds' (or jobs') wall time in which none of
		// the benchmark's calls into the program was open.
		"unattributed_frac": frac(ratio(float64(root.self), float64(root.busy))),
		// How much longer a verified MB took with tracing on.
		"trace_overhead_frac": frac(ratio(ratio(in.traced.wall.Seconds(), in.traced.mb()),
			ratio(in.untraced.wall.Seconds(), in.untraced.mb())) - 1),
		"failed_frac": frac(ratio(float64(in.all.failed), float64(in.all.attempted))),
	}
	for _, n := range spanNames {
		m["self_s."+n] = secs(span(n).self)
	}
	return m
}

// resolverHitRatio is the share of Resolver calls answered from its
// cached ownership map; every map fetch is a miss.
func resolverHitRatio(mapFetches, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return max(0, 1-float64(mapFetches)/float64(calls))
}

// mergerFetches counts the NetMergers' segment fetches. Registering an
// existing name returns its handle.
var mergerFetches = metrics.Default().Counter("jbs_merger_fetches_total", "reqs",
	"segment fetches issued by mergers")

// admittedGauge is the flow ledgers' current admitted bytes, summed over
// the process's suppliers. Registering an existing name returns its
// handle.
var admittedGauge = metrics.Default().Gauge("jbs_flow_admitted_bytes", "bytes",
	"bytes currently admitted by the ledger (queued + staged + transmitting)")

// sampleAdmitted adds a sample of admittedGauge to *sum every 10ms, and
// counts them in *n, until the returned stop is called.
func sampleAdmitted(sum *float64, n *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*sum += float64(admittedGauge.Load())
				*n++
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
