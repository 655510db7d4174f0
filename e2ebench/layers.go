package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Every workload reports all of them; a layer the workload
// bypasses reads 0 (README.md says which layers each workload crosses).
// Timings ending in _ms are means per call (or per operation, for the
// _self_ms split of core.HCA); counts are sums over the distinct
// compiles the workload asked for, so they repeat exactly per seed.
var perLayer = []struct{ name, unit string }{
	{"lang.compile_ms", "ms"},
	{"core.hca_ms", "ms"},
	{"core.subproblems", "count"},
	{"see.candidates_tried", "count"},
	{"see.states_explored", "count"},
	{"see.router_invocations", "count"},
	{"see.duplicates_pruned", "count"},
	{"partition.seed_self_ms", "ms"},
	{"see.solve_self_ms", "ms"},
	{"mapper.map_self_ms", "ms"},
	{"postprocess_self_ms", "ms"},
	{"coherency_self_ms", "ms"},
	{"hca_self_ms", "ms"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"modsched.run_ms", "ms"},
	{"modsched.tries", "count"},
	{"modsched.ii_sum", "cycles"},
	// Compiles modsched's default search cap could not schedule (its
	// cap lay below MinII); see schedule in corpus.go.
	{"modsched.default_cap_misses", "count"},
	{"regalloc.run_ms", "ms"},
	{"emit.build_ms", "ms"},
	{"emit.instructions", "count"},
	{"sim.check_ms", "ms"},
	{"sim.cycles", "cycles"},
	{"report.encode_ms", "ms"},
	{"http.hit_p50_ms", "ms"},
	{"http.hit_tail_ms", "ms"},
	{"http.near_p50_ms", "ms"},
	{"http.near_tail_ms", "ms"},
	{"http.cold_p50_ms", "ms"},
	{"http.cold_tail_ms", "ms"},
	{"http.batch_p50_ms", "ms"},
	{"http.batch_tail_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.memo_hit_ratio", "ratio"},
	{"service.batch_deduped", "count"},
	{"service.singleflight_hits", "count"},
	{"service.failures", "count"},
	{"store.warm_ms", "ms"},
	{"service.store_hits", "count"},
	{"dse.sweep_ms", "ms"},
	{"dse.points", "count"},
	{"dse.unique", "count"},
	{"dse.deduped", "count"},
	{"dse.memo_hit_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	// Tracing overhead: the traced run alternates traced and untraced
	// passes over the same inputs and reports the throughput of each.
	{"trace.traced_throughput_per_s", "1/s"},
	{"trace.untraced_throughput_per_s", "1/s"},
}

// layerSet is a traced run's per-layer metrics under construction.
type layerSet map[string]metric

// newLayerSet returns every per-layer metric at 0 with its unit.
func newLayerSet() layerSet {
	ls := layerSet{}
	for _, l := range perLayer {
		ls[l.name] = metric{Unit: l.unit}
	}
	return ls
}

// set records a value; the name must be one of perLayer.
func (ls layerSet) set(name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic("e2ebench: unknown per-layer metric " + name)
	}
	m.Value = v
	ls[name] = m
}

// setSamples records a value with its sample count.
func (ls layerSet) setSamples(name string, v float64, n int) {
	ls.set(name, v)
	m := ls[name]
	m.Samples = n
	ls[name] = m
}

// setSpanMeans records, for each metric, the mean duration of the
// benchmark spans of the given name.
func (ls layerSet) setSpanMeans(tr *tracer, spanOf map[string]string) {
	for name, span := range spanOf {
		mean, n := tr.meanMs(span)
		ls.setSamples(name, mean, n)
	}
}
