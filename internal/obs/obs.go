// Package obs is Grade10's self-observability layer: the framework that
// characterizes distributed graph engines pointed at itself. It provides
//
//   - Tracer / Span: lightweight wall-clock span tracing for the analysis
//     pipeline's own stages (log parse, per-instance attribution jobs,
//     bottleneck scan, issue replays, streaming window flushes, simulator
//     supersteps). Spans carry a stage name, a worker id, an item count,
//     and the virtual-time window they processed. A nil *Tracer disables
//     tracing with zero allocations on the hot path.
//
//   - Registry: a dependency-free metrics registry (counters, gauges,
//     histograms, with optional labels) rendered in Prometheus text
//     exposition format with stable ordering and spec-compliant label
//     escaping.
//
//   - TraceBuilder: a Chrome trace-event JSON writer (loadable in Perfetto
//     and chrome://tracing) used both for the pipeline's self-trace and for
//     rendering an analyzed job's performance profile as a timeline.
//
//   - NewLogger: a log/slog setup helper shared by the cmd/* binaries for
//     the -log-format json|text flag.
//
// obs sits below every analysis package (it imports nothing from the rest of
// the repository), so any layer can be instrumented without import cycles.
package obs
