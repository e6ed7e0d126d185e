package main

import "fmt"

// perLayer assembles the traced run's per-layer metrics: span
// aggregates from the probes, server counter deltas over the traced
// window, and the untraced window of the same run for the harness's
// own health checks. A layer the workload's requests never cross
// reads 0.
func perLayer(tr *tracer, p *prober, ph, untraced *phase) (map[string]metric, map[string]string) {
	m := map[string]metric{}
	d := map[string]string{}
	set := func(name string, v float64, unit, detail string) {
		m[name] = metric{v, unit}
		d[name] = detail
	}
	sum := func(key string) float64 {
		var s float64
		for i := range ph.start {
			s += delta(ph.start[i], ph.end[i], key)
		}
		return s
	}
	front := len(ph.start) - 1
	handle, handled := windowMean(ph.start[front], ph.end[front])
	set("server.handle_mean_us", handle, "us", fmt.Sprintf("front server's latency sum/count over the window, n=%g", handled))
	set("server.handled", handled, "count", "requests the front server timed in the window")
	client := float64(ph.out.meanLat.Nanoseconds()) / 1e3
	set("http.overhead_us", client-handle, "us", fmt.Sprintf("client mean %.1f us minus server handle mean", client))
	set("server.allocs_per_req", p.allocs, "count", "in-process handler replay, net of a body-draining handler")

	for _, l := range []struct{ metric, span string }{
		{"json.decode_us", "json.decode"},
		{"json.encode_us", "json.encode"},
		{"server.coalesce_wait_us", "server.coalesce_wait"},
		{"kde.single_us", "kde.single"},
		{"kde.newcluster_us", "kde.NewCluster"},
		{"stream.snapshot_us", "stream.Engine.Summarizer"},
		{"distrib.summary_pull_us", "distrib.summary_pull"},
		{"distrib.merge_us", "distrib.merge"},
		{"distrib.partial_rpc_us", "distrib.partial_rpc"},
		{"distrib.ingest_rpc_us", "distrib.ingest_rpc"},
	} {
		a := tr.layer(l.span)
		set(l.metric, a.perCall(), "us", fmt.Sprintf("mean of %d %s spans", a.calls, l.span))
	}
	for _, l := range []struct{ metric, span string }{
		{"kde.density_us_per_row", "kde.DensityBatchOpts"},
		{"core.classify_us_per_row", "core.ClassifyBatchContext"},
		{"stream.add_us_per_row", "stream.Engine.Add"},
		{"obs.span_us", "obs.StartSpan+End"},
	} {
		a := tr.layer(l.span)
		set(l.metric, a.perRow(), "us", fmt.Sprintf("%d rows over %d %s spans", a.rows, a.calls, l.span))
	}

	hits, lookups := sum("cache_hits"), sum("cache_hits")+sum("cache_misses")
	set("server.cache_hit_ratio", ratio{hits, lookups}.value(), "ratio", ratio{hits, lookups}.String()+" hits/lookups")
	set("server.cache_lookups", lookups, "count", "density cache lookups in the window")
	// udmserve counts its own coalesced batches. The proxy exports no
	// batch counters: each of its coalesced density batches is one
	// fan-out, and so is each ingest, so its batches are the fan-outs
	// that were not ingests.
	items, flushes := sum("batched_items"), sum("batch_flushes")
	fanouts := sum("fanouts")
	if fanouts > 0 {
		var reads, writes float64
		for _, s := range p.samples {
			if s.err != nil {
				continue
			}
			if s.req.op == opIngest {
				writes++
			} else if s.req.single {
				reads++
			}
		}
		items, flushes = reads, fanouts-writes
	}
	set("server.avg_batch_size", ratio{items, flushes}.value(), "items/flush", ratio{items, flushes}.String()+" items/flushes")
	set("server.batch_flushes", flushes, "count", "coalesced batches in the window")
	set("server.shed", sum("shed"), "count", "429s over every server process in the window")
	set("server.errors", sum("errors"), "count", "4xx/5xx over every server process in the window")
	set("distrib.fanouts", fanouts, "count", "proxy scatter/gather rounds in the window")

	u := untraced.out
	set("client.cpu_us_per_req", float64(u.cpuPerReq.Nanoseconds())/1e3, "us",
		fmt.Sprintf("benchmark process CPU over %d untraced requests", u.attempted))
	set("trace.overhead_pct", 100*(u.throughput-ph.out.throughput)/u.throughput, "%",
		fmt.Sprintf("untraced %.1f req/s, traced %.1f req/s", u.throughput, ph.out.throughput))
	set("write_p50_ms", ms(u.writeP50), "ms", fmt.Sprintf("untraced window, nearest rank, n=%d", u.writes))
	set("latency_p95_ms", ms(u.p95), "ms", fmt.Sprintf("untraced window, nearest rank, n=%d", u.n))
	set("latency_p99_ms", ms(u.p99), "ms", fmt.Sprintf("untraced window, nearest rank, n=%d", u.n))
	set("host.steal_pct", ph.steal, "%", "CPU time stolen by the host during the traced window")
	return m, d
}
