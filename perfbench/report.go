package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
)

// replayBudget caps the time spent replaying recorded queries in a traced
// run; per-query figures are averages, so a prefix of the run suffices.
const replayBudget = 3 * time.Second

// preloadBatch is the wire batch of the set-up stream, sent at full speed
// through a 256-event coalescer. The preload is replayed only to rebuild
// the matrix, so its batch shape moves no reported figure.
const preloadBatch = 256

// delta is how much a server counter grew over a window.
func (w *window) delta(name string) float64 { return w.m1[name] - w.m0[name] }

// delta is how much a server counter grew over all of the session's
// windows.
func (ss *session) delta(name string) float64 {
	var d float64
	for _, w := range ss.windows {
		d += w.delta(name)
	}
	return d
}

// meanOf is the mean observation of the server histogram hist over the
// session's windows, from the deltas of its _sum and _count series.
func (ss *session) meanOf(hist string) float64 {
	return ratio(ss.delta(hist+"_sum"), ss.delta(hist+"_count"))
}

// replayRun replays the session's inputs and checks the server's answers
// against the replay: oracle queries, per-probe rule firings, and events
// sent against events applied. With traced set it also replays the run's
// recorded queries for the per-layer scan figures.
func replayRun(ss *session, sch *schema.Schema, scratch string, res *serverResults, traced bool) (*replay, []string, error) {
	wal := ""
	if ss.spec.durable {
		wal = filepath.Join(scratch, "replay-wal")
	}
	r, err := newReplay(sch, ss.seed, ss.spec.tiered, traced, wal)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	if steps := ss.delta("aim_core_scan_rounds_total"); steps > 0 {
		r.mergeEvery = max(16, int(ss.delta("aim_core_merged_records_total")/steps))
	}
	pre := preloadEvents(ss.spec, ss.seed)
	if err := r.ingest(pre, preloadBatch); err != nil {
		return nil, nil, err
	}
	r.resetEventStats()
	// The stream goes in the batches the node applied, and traced queries
	// in the rounds it fused: their mean sizes are the server's own
	// histograms over the windows.
	evBatch, qRound := ss.meanOf("aim_core_ingest_batch_size"), ss.meanOf("aim_query_batch_size")
	fmt.Printf("# replay: stream batches of mean %.2f events, scan rounds of mean %.2f queries, a merge step every %d events\n",
		evBatch, qRound, r.mergeEvery)
	if err := r.ingest(ss.in.stream, evBatch); err != nil {
		return nil, nil, err
	}
	var problems []string
	mismatch := 0
	for i, ev := range ss.in.probes {
		n, err := r.one(ev)
		if err != nil {
			return nil, nil, err
		}
		if n != ss.in.probeFirings[i] {
			if mismatch == 0 {
				problems = append(problems, fmt.Sprintf("probe %d (entity %d): server fired %d rules, replay %d",
					i, ev.Caller, ss.in.probeFirings[i], n))
			}
			mismatch++
		}
	}
	if mismatch > 1 {
		problems = append(problems, fmt.Sprintf("%d probes in all fired differently", mismatch))
	}
	for _, ev := range append(append([]event.Event(nil), ss.in.fresh...), ss.in.fences...) {
		if _, err := r.one(ev); err != nil {
			return nil, nil, err
		}
	}
	r.mergeAll()
	r.mergeAll()
	if sent := len(pre) + ss.in.events(); float64(sent) != res.applied {
		problems = append(problems, fmt.Sprintf("%d events sent, server applied %.0f", sent, res.applied))
	}
	want, err := r.scanRound(res.queries)
	if err != nil {
		return nil, nil, err
	}
	for i, q := range res.queries {
		if err := r.compareResult(q, res.results[i], want[i]); err != nil {
			problems = append(problems, "oracle: "+err.Error())
		}
	}
	r.resetQueryStats()
	if traced {
		if err := r.replayQueries(ss.in.served, qRound); err != nil {
			return nil, nil, err
		}
	}
	return r, problems, nil
}

// replayQueries replays the served queries in send order, in consecutive
// rounds of mean size roundMean, until replayBudget is spent.
func (r *replay) replayQueries(served []*query.Query, roundMean float64) error {
	end := time.Now().Add(replayBudget)
	for _, n := range chunkSizes(len(served), roundMean) {
		if !time.Now().Before(end) {
			return nil
		}
		if _, err := r.scanRound(served[:n]); err != nil {
			return err
		}
		served = served[n:]
	}
	return nil
}

func (r *replay) resetEventStats() {
	r.events, r.runs, r.firings = 0, 0, 0
	r.codec, r.logAppend, r.apply, r.evalRules = 0, 0, 0, 0
	r.merge, r.freeze = 0, 0
	r.merged, r.freezes = 0, 0
}

func (r *replay) resetQueryStats() {
	r.queries, r.rounds, r.preds, r.evaluated, r.folded = 0, 0, 0, 0, 0
	r.qCodec, r.compile, r.partialMerge, r.finalize = 0, 0, 0, 0
	r.scanHot, r.scanFrozen = 0, 0
	r.hotBuckets, r.frozenBuckets = 0, 0
}

// tailSlices is how many sub-windows a tail percentile, or the median of
// the sparse freshness probes, is taken over: one, the whole window, so it
// holds enough samples beyond it. A one-second slice holds only 20
// freshness probes, the least a median needs.
const tailSlices = 1

// medianSlices is how many sub-windows a median is taken over: one per
// second of the window, so a few seconds of stall or stolen CPU move the
// metric little.
func medianSlices(d time.Duration) int { return max(1, int(d/time.Second)) }

// pctMetric reports the q-th percentile of xs as the median over n
// sub-windows of the window, noting the smallest sub-window's sample count
// and any fallback to a lower percentile.
func pctMetric(name, unit string, xs []float64, at []time.Duration, d time.Duration, q float64, n int) metric {
	p, ok := subPercentile(xs, at, d, q, n)
	m := metric{name: name, unit: unit, value: p.Value, note: fmt.Sprintf("p%g, median of %d sub-windows of n>=%d", q*100, n, p.N)}
	switch {
	case !ok:
		m.note += " (too few samples)"
	case p.Q != q:
		m.note += fmt.Sprintf(" (fell back to p%.1f)", p.Q*100)
	}
	return m
}

func perSec(n float64, d time.Duration) float64 { return n / d.Seconds() }

// medianRate is the median over the window's one-second sub-windows of
// the number of samples stamped in each, so a few seconds of stolen CPU
// or a checkpoint stall move it less than the window's mean rate.
func medianRate(at []time.Duration, d time.Duration) float64 {
	n := medianSlices(d)
	counts := make([]float64, n)
	for _, t := range at {
		counts[min(max(int(int64(t)*int64(n)/int64(d)), 0), n-1)]++
	}
	return median(counts) * float64(n) / d.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is the untraced result: the paper's KPIs seen from the client.
// The query latencies, the event tail and the freshness figures are
// printed but not gated: on the durable workloads they swing by a quarter
// to two thirds between runs of the same build, at the edge of the
// checkpoint stalls or behind a saturated ESP thread (README.md has the
// measured spreads).
func endToEnd(s spec, w *window, d time.Duration, setupS float64) []metric {
	info := func(m metric) metric {
		m.info = true
		return m
	}
	return []metric{
		{name: "rta_qps", unit: "1/s", value: medianRate(w.rtaAt, d), note: fmt.Sprintf("%d clients, median of %d one-second rates", s.clients, medianSlices(d))},
		info(pctMetric("rta_p50_ms", "ms", w.rtaMs, w.rtaAt, d, 0.50, medianSlices(d))),
		info(pctMetric("rta_p99_ms", "ms", w.rtaMs, w.rtaAt, d, 0.99, tailSlices)),
		pctMetric("event_p50_ms", "ms", w.eventMs, w.eventAt, d, 0.50, medianSlices(d)),
		info(pctMetric("event_p99_ms", "ms", w.eventMs, w.eventAt, d, 0.99, tailSlices)),
		info(pctMetric("fresh_p50_ms", "ms", w.freshMs, w.freshAt, d, 0.50, tailSlices)),
		info(pctMetric("fresh_p95_ms", "ms", w.freshMs, w.freshAt, d, 0.95, tailSlices)),
		{name: "ingest_eps", unit: "1/s", value: perSec(float64(w.events), w.elapsed), note: "to the final Flush"},
		{name: "server_rss_mb", unit: "MB", value: mean(w.rssMB), note: fmt.Sprintf("mean of %d samples, peak %.0f", len(w.rssMB), float64(w.p1.hwmKB)/1024)},
		{name: "setup_s", unit: "s", value: setupS, note: fmt.Sprintf("median of %d", setups)},
		{name: "ok_frac", unit: "frac", value: 1 - ratio(float64(w.failed), float64(w.attempted)), note: "1 - error_frac"},
	}
}

func medianOf(xs []float64) float64 { return median(append([]float64(nil), xs...)) }

// mean is the mean of xs, or 0 for an empty slice. Over RSS samples it
// follows the checkpoints' memory sawtooth more steadily than the median,
// which jumps between the sawtooth's low and high plateaus.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// perLayer is the traced result. Client-boundary figures come from the
// traced window tw, process figures from the untraced window w, busy times
// from the replay r.
func perLayer(s spec, w, tw *window, r *replay, d time.Duration) []metric {
	tr := tw.tr
	cpu := (w.p1.cpu - w.p0.cpu).Seconds()
	wall := w.p1.at.Sub(w.p0.at).Seconds()
	queries := float64(len(w.rtaMs) + w.freshPolls)
	records := w.m1["aim_core_records"]
	ckpts := w.delta("aim_ckpt_total")

	eventRTT := medianOf(tr.eventRTT.values())
	queryRTT := medianOf(tr.queryRTT.values())
	// Busy time behind one sync event: decode, log, apply and rules.
	eventBusy := float64((r.codec + r.logAppend + r.apply + r.evalRules).Nanoseconds()) / float64(max(r.events, 1)) / 1e6
	// Busy time behind one query: its whole shared-scan round, with the
	// partitions scanned in parallel by the node's scan threads.
	roundFixed := r.qCodec + r.compile + r.partialMerge + r.finalize
	roundScan := (r.scanHot + r.scanFrozen) / partitions
	queryBusy := ratio(float64((roundFixed+roundScan).Nanoseconds()), float64(r.rounds)) / 1e6
	eventWait, eventShare := residual(eventRTT, eventBusy)
	queryWait, queryShare := residual(queryRTT, queryBusy)

	primary := func(w *window) float64 {
		if s.rate == 0 {
			return perSec(float64(w.events), w.elapsed)
		}
		return perSec(float64(len(w.rtaMs)), d)
	}
	ms := []metric{
		// Client boundary (traced window).
		{name: "esp.ingest_us", unit: "us", value: medianOf(tr.ingest.values()), note: "median Router.Ingest"},
		{name: "netproto.event_enqueue_us", unit: "us", value: medianOf(tr.enqueue.values()), note: "median ProcessEventAsync"},
		{name: "netproto.flush_ms", unit: "ms", value: medianOf(tr.flush.values()), note: "median FlushEvents"},
		{name: "netproto.event_rtt_ms", unit: "ms", value: eventRTT, note: "median ProcessEvent"},
		{name: "netproto.query_rtt_ms", unit: "ms", value: queryRTT, note: "median node query RTT"},
		{name: "rta.gather_self_us", unit: "us", value: medianOf(tr.gatherSelfUs.values()), note: "Execute minus slowest node RTT"},
		{name: "rta.fresh_polls_per_probe", unit: "count", value: ratio(float64(w.freshPolls), float64(len(w.freshMs)))},
		// Process, read from outside (untraced window).
		{name: "server.cpu_cores", unit: "cores", value: ratio(cpu, wall)},
		{name: "server.cpu_us_per_event", unit: "us", value: ratio(cpu*1e6, float64(w.events))},
		{name: "server.cpu_us_per_query", unit: "us", value: ratio(cpu*1e6, queries)},
		{name: "server.vol_ctxsw_per_s", unit: "1/s", value: ratio(float64(w.p1.volCtxsw-w.p0.volCtxsw), wall)},
		{name: "archive.wal_bytes_per_event", unit: "B", value: ratio(w.delta("aim_archive_append_bytes_total"), float64(w.events))},
		{name: "checkpoint.bytes_per_entity", unit: "B", value: ratio(w.delta("aim_ckpt_bytes_total"), ckpts*records)},
		{name: "checkpoint.cycles", unit: "count", value: ckpts},
		// Replay: the event path.
		{name: "event.codec_ns_per_event", unit: "ns", value: nsPer(r.codec, r.events)},
		{name: "archive.append_ns_per_event", unit: "ns", value: nsPer(r.logAppend, r.events)},
		{name: "core.apply_ns_per_event", unit: "ns", value: nsPer(r.apply, r.events), note: "rules excluded"},
		{name: "core.coalesced_run_len", unit: "events", value: ratio(float64(r.events), float64(r.runs))},
		{name: "rules.eval_ns_per_event", unit: "ns", value: nsPer(r.evalRules, r.events)},
		{name: "rules.firings_per_kevent", unit: "count", value: ratio(1000*float64(r.firings), float64(r.events))},
		{name: "core.merge_ns_per_record", unit: "ns", value: nsPer(r.merge, r.merged)},
		{name: "core.merge_records_per_step", unit: "count", value: ratio(w.delta("aim_core_merged_records_total"), partitions*w.delta("aim_core_scan_rounds_total")), note: "server"},
		// Cold tier: freeze cost from the replay, churn and footprint from the server.
		{name: "columnmap.freeze_us_per_bucket", unit: "us", value: ratio(float64(r.freeze.Microseconds()), float64(r.freezes))},
		{name: "columnmap.freezes_per_kevent", unit: "count", value: ratio(1000*w.delta("aim_core_bucket_freezes_total"), float64(w.events))},
		{name: "columnmap.thaws_per_kevent", unit: "count", value: ratio(1000*w.delta("aim_core_bucket_thaws_total"), float64(w.events))},
		{name: "columnmap.bytes_per_entity_hot", unit: "B", value: ratio(w.m1[`aim_core_main_bytes{tier="hot"}`], records)},
		{name: "columnmap.bytes_per_entity_cold", unit: "B", value: ratio(w.m1[`aim_core_main_bytes{tier="cold"}`], records)},
		// Replay: the query path.
		{name: "query.scan_us_per_hot_bucket", unit: "us", value: nsPer(r.scanHot, r.hotBuckets) / 1e3},
		{name: "query.scan_us_per_frozen_bucket", unit: "us", value: nsPer(r.scanFrozen, r.frozenBuckets) / 1e3},
		{name: "query.compile_us_per_round", unit: "us", value: nsPer(r.compile, r.rounds) / 1e3},
		{name: "query.predicates_saved_frac", unit: "frac", value: 1 - ratio(float64(r.evaluated), float64(r.preds))},
		{name: "query.duplicates_folded_frac", unit: "frac", value: ratio(float64(r.folded), float64(r.queries))},
		{name: "query.partial_merge_us", unit: "us", value: nsPer(r.partialMerge, r.queries) / 1e3},
		{name: "query.finalize_us", unit: "us", value: nsPer(r.finalize, r.queries) / 1e3},
		{name: "query.codec_us_per_query", unit: "us", value: nsPer(r.qCodec, r.queries) / 1e3},
		{name: "replay.events_per_s", unit: "1/s", value: ratio(float64(r.events), (r.codec + r.logAppend + r.apply + r.evalRules + r.merge + r.freeze).Seconds())},
		{name: "replay.queries_per_s", unit: "1/s", value: ratio(float64(r.queries), (roundFixed + r.scanHot + r.scanFrozen).Seconds())},
		// Residual waits: RTT minus replayed busy time.
		{name: "netproto.event_wait_ms", unit: "ms", value: eventWait, note: "ESP queue, WAL lock, checkpoint barrier"},
		{name: "netproto.event_wait_share", unit: "frac", value: eventShare},
		{name: "netproto.query_wait_ms", unit: "ms", value: queryWait, note: "admission queue, round alignment, merge"},
		{name: "netproto.query_wait_share", unit: "frac", value: queryShare},
		{name: "trace_overhead_frac", unit: "frac", value: 1 - ratio(primary(tw), primary(w)), note: "primary throughput, untraced vs traced"},
	}
	sums(tr, tw, eventBusy, queryBusy, eventRTT, queryRTT)
	return ms
}

// sums prints the trace's sums check: client self time plus node RTT
// against the end-to-end latency, and replayed busy time plus the named
// wait against the RTT, with the wait's share.
func sums(tr *tracer, tw *window, eventBusy, queryBusy, eventRTT, queryRTT float64) {
	late, route, self := medianOf(tr.probeLateMs.values()), medianOf(tr.probeRouteMs.values()), medianOf(tr.probeSelfMs.values())
	e2e := medianOf(tw.eventMs)
	fmt.Printf("# sums event: late %.4f + router self %.4f + node rtt %.4f = %.4f ms; end-to-end p50 %.4f ms (route %.4f)\n",
		late, self, eventRTT, late+self+eventRTT, e2e, route)
	gather := medianOf(tr.gatherSelfUs.values()) / 1e3
	fmt.Printf("# sums query: gather self %.4f + node rtt %.4f = %.4f ms; end-to-end p50 %.4f ms\n",
		gather, queryRTT, gather+queryRTT, medianOf(tw.rtaMs))
	for _, c := range []struct {
		name      string
		rtt, busy float64
	}{{"event", eventRTT, eventBusy}, {"query", queryRTT, queryBusy}} {
		wait, share := residual(c.rtt, c.busy)
		fmt.Printf("# sums %s rtt: busy %.4f + wait %.4f = %.4f ms (wait share %.1f%%)\n",
			c.name, c.busy, wait, c.busy+wait, 100*share)
	}
}
