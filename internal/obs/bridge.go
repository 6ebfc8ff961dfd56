package obs

import "runtime"

// RegisterRuntime registers Go runtime health gauges (evaluated at scrape
// time) on the registry: goroutine count, heap/system memory, GC cycles.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// Read through runtime/metrics, not runtime.ReadMemStats, so a scrape
	// never stops the world.
	gauge := func(name, help, metric string) {
		r.GaugeFunc(name, help, func() float64 { return float64(readRuntimeMetric(metric)) })
	}
	gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", "/memory/classes/heap/objects:bytes")
	gauge("go_mem_sys_bytes", "Bytes of memory obtained from the OS.", "/memory/classes/total:bytes")
	gauge("go_gc_cycles_total", "Completed GC cycles.", "/gc/cycles/total:gc-cycles")
}

// BridgeTracer feeds every span the tracer completes into per-stage metric
// families on the registry: a duration histogram plus an item throughput
// counter. Install before instrumented code runs; replaces any previous
// OnRecord hook.
func BridgeTracer(r *Registry, t *Tracer) {
	if r == nil || t == nil {
		return
	}
	durs := r.HistogramVec("grade10_stage_duration_seconds",
		"Wall-clock duration of pipeline self-trace spans, per stage.", nil, "stage")
	items := r.CounterVec("grade10_stage_items_total",
		"Items (events, samples, slices) processed by pipeline stages.", "stage")
	spans := r.Counter("grade10_spans_total", "Completed self-trace spans.")
	r.GaugeFunc("grade10_spans_dropped_total",
		"Self-trace spans discarded by the bounded ring.",
		func() float64 { return float64(t.Dropped()) })
	t.OnRecord(func(rec SpanRecord) {
		spans.Inc()
		durs.With(rec.Stage).Observe(rec.Dur.Seconds())
		if rec.Items > 0 {
			items.With(rec.Stage).Add(float64(rec.Items))
		}
	})
}
