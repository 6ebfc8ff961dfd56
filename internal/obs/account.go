package obs

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// RunAccount accrues the framework's own cost of characterizing one run:
// wall time spent inside the engine's compute sections (window flush,
// finalize), heap bytes allocated process-wide during those sections, and
// raw ingest volume. All methods are atomic, and every method is a no-op on
// a nil receiver so instrumented hot paths pay one predictable branch when
// accounting is off.
//
// The figures are diagnostics, not part of the determinism contract: they
// come from the wall clock and the Go runtime, so they differ run to run and
// never feed analyzed-profile output.
type RunAccount struct {
	wallNS      atomic.Int64
	allocBytes  atomic.Int64
	ingestBytes atomic.Int64
	events      atomic.Int64
	windows     atomic.Int64
}

// AddWall accrues wall time spent in a framework code path for this run.
func (a *RunAccount) AddWall(d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.wallNS.Add(int64(d))
}

// AddAlloc accrues heap bytes allocated during a compute section — a
// process-wide delta, so concurrent runs' allocations bleed into each other;
// the per-run split is an attribution estimate, like everything Grade10
// attributes.
func (a *RunAccount) AddAlloc(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.allocBytes.Add(n)
}

// AddIngest accrues raw ingest volume: payload bytes and accepted-or-not
// input items (events, lines, samples).
func (a *RunAccount) AddIngest(bytes, items int64) {
	if a == nil {
		return
	}
	if bytes > 0 {
		a.ingestBytes.Add(bytes)
	}
	if items > 0 {
		a.events.Add(items)
	}
}

// AddWindow counts one flushed window.
func (a *RunAccount) AddWindow() {
	if a == nil {
		return
	}
	a.windows.Add(1)
}

// OverheadSnapshot is one run's accrued framework cost, JSON-shaped for
// /fleet/runs and /debug/overhead.
type OverheadSnapshot struct {
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  int64   `json:"alloc_bytes"`
	IngestBytes int64   `json:"ingest_bytes"`
	IngestItems int64   `json:"ingest_items"`
	Windows     int64   `json:"windows"`
}

// Snapshot reads the current totals; zero-valued on a nil account.
func (a *RunAccount) Snapshot() OverheadSnapshot {
	if a == nil {
		return OverheadSnapshot{}
	}
	return OverheadSnapshot{
		WallSeconds: time.Duration(a.wallNS.Load()).Seconds(),
		AllocBytes:  a.allocBytes.Load(),
		IngestBytes: a.ingestBytes.Load(),
		IngestItems: a.events.Load(),
		Windows:     a.windows.Load(),
	}
}

// RunOverhead tags one run's overhead snapshot with its name — the row shape
// shared by /debug/overhead, the UI overhead panel, and the bundle capture.
type RunOverhead struct {
	Run string `json:"run"`
	OverheadSnapshot
}

// HeapAllocBytes reads the runtime's cumulative heap allocation counter
// (/gc/heap/allocs:bytes) — cheap (no stop-the-world, unlike ReadMemStats),
// so the engine can sample it around every window flush.
func HeapAllocBytes() uint64 { return readRuntimeMetric("/gc/heap/allocs:bytes") }

// readRuntimeMetric reads one uint64 runtime/metrics value, 0 if the runtime
// does not export it as one. It does not stop the world.
func readRuntimeMetric(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
