package service

import (
	"sync"
	"sync/atomic"
	"time"

	"grade10/internal/fleet"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/stream"
)

// statFamilies are the engine's ingest and robustness counters on /metrics.
var statFamilies = []struct {
	name, help string
	get        func(stream.Stats) int64
}{
	{"grade10_ingest_lines_total", "Log lines seen by the parser.", func(s stream.Stats) int64 { return s.Lines }},
	{"grade10_parse_errors_total", "Malformed log lines counted and skipped.", func(s stream.Stats) int64 { return s.ParseErrors }},
	{"grade10_truncated_lines_total", "Over-long log lines dropped by the line reader.", func(s stream.Stats) int64 { return s.Truncated }},
	{"grade10_events_total", "Accepted enginelog events.", func(s stream.Stats) int64 { return s.Events }},
	{"grade10_invalid_events_total", "Events rejected for violating phase structure.", func(s stream.Stats) int64 { return s.InvalidEvents }},
	{"grade10_late_events_total", "Blocking intervals arriving behind the flushed frontier, and events arriving after finalize.", func(s stream.Stats) int64 { return s.LateEvents }},
	{"grade10_samples_total", "Accepted monitoring samples.", func(s stream.Stats) int64 { return s.Samples }},
	{"grade10_invalid_samples_total", "Monitoring samples dropped as malformed.", func(s stream.Stats) int64 { return s.InvalidSamples }},
	{"grade10_monitoring_gaps_filled_total", "Monitoring gaps zero-filled.", func(s stream.Stats) int64 { return s.GapsFilled }},
	{"grade10_ignored_samples_total", "Samples for resources the model does not cover.", func(s stream.Stats) int64 { return s.IgnoredSamples }},
	{"grade10_windows_flushed_total", "Analysis windows flushed.", func(s stream.Stats) int64 { return s.WindowsFlushed }},
}

// profileGauges are the live profile's scalar gauges on /metrics.
var profileGauges = []struct {
	name, help string
	get        func(*stream.Snapshot) float64
}{
	{"grade10_open_phases", "Phases currently executing.", func(s *stream.Snapshot) float64 { return float64(len(s.OpenPhases)) }},
	{"grade10_watermark_seconds", "Latest virtual instant covered by the log feed.", func(s *stream.Snapshot) float64 { return s.WatermarkSeconds }},
	{"grade10_frontier_seconds", "Virtual instant up to which windows have flushed.", func(s *stream.Snapshot) float64 { return s.FrontierSeconds }},
	{"grade10_ingest_lag_seconds", "Virtual time the watermark runs ahead of the flushed frontier.", func(s *stream.Snapshot) float64 { return s.LagSeconds }},
	{"grade10_attribution_coverage", "Attributed / consumed over all flushed windows.", func(s *stream.Snapshot) float64 { return s.Coverage }},
	{"grade10_finalized", "1 once the run has been finalized.", func(s *stream.Snapshot) float64 { return boolValue(s.Finalized) }},
}

// profileMetrics mirrors the pinned run's live profile onto the registry.
type profileMetrics struct {
	reg                    *obs.Registry
	stats                  []*obs.Counter
	explainQ               *obs.Counter
	provenance             *obs.Gauge
	gauges                 []*obs.Gauge
	ingestAge              *obs.Gauge
	util, lastUtil         *obs.GaugeVec
	saturated, bottlenecks *obs.CounterVec
}

func newProfileMetrics(reg *obs.Registry) *profileMetrics {
	m := &profileMetrics{reg: reg}
	for _, f := range statFamilies {
		m.stats = append(m.stats, reg.Counter(f.name, f.help))
	}
	m.explainQ = reg.Counter("grade10_explain_queries_total", "Explain queries served by the provenance engine.")
	m.provenance = reg.Gauge("grade10_provenance_bytes", "Approximate retained size of the captured attribution provenance.")
	for _, g := range profileGauges {
		m.gauges = append(m.gauges, reg.Gauge(g.name, g.help))
	}
	m.ingestAge = reg.Gauge("grade10_last_ingest_age_seconds",
		"Wall-clock seconds since the last ingested event, line, or sample.")
	m.util = reg.GaugeVec("grade10_resource_utilization",
		"Cumulative utilization of a resource instance over flushed windows.", "instance")
	m.lastUtil = reg.GaugeVec("grade10_resource_last_window_utilization",
		"Utilization of a resource instance in the most recent window.", "instance")
	m.saturated = reg.CounterVec("grade10_resource_saturated_seconds_total",
		"Virtual seconds a resource instance spent saturated.", "instance")
	m.bottlenecks = reg.CounterVec("grade10_bottleneck_seconds_total",
		"Virtual seconds of detected bottleneck per phase type, resource, and kind.",
		"type_path", "resource", "kind")
	return m
}

// update refreshes every family from one snapshot.
func (m *profileMetrics) update(snap *stream.Snapshot, explainQueries, provenanceBytes int64) {
	for i, f := range statFamilies {
		m.stats[i].Set(float64(f.get(snap.Stats)))
	}
	m.explainQ.Set(float64(explainQueries))
	m.provenance.Set(float64(provenanceBytes))
	for i, g := range profileGauges {
		m.gauges[i].Set(g.get(snap))
	}
	// Instance and bottleneck keys only accumulate over a run, so the
	// labeled children never need deleting.
	for _, is := range snap.Instances {
		m.util.With(is.Key).Set(is.Utilization)
		m.lastUtil.With(is.Key).Set(is.LastWindowUtilization)
		m.saturated.With(is.Key).Set(is.SaturatedSeconds)
	}
	for _, b := range snap.Bottlenecks {
		m.bottlenecks.With(b.TypePath, b.Resource, b.Kind).Set(b.Seconds)
	}
	// Engine-reported counters register on first sight: runs whose engine
	// reports none expose no counter families.
	if len(snap.Counters) > 0 {
		sum := m.reg.GaugeVec("grade10_engine_counter_sum", "Sum of an engine-reported counter.", "name")
		last := m.reg.GaugeVec("grade10_engine_counter_last", "Last value of an engine-reported counter.", "name")
		for name, c := range snap.Counters {
			sum.With(name).Set(c.Sum)
			last.With(name).Set(c.Last)
		}
	}
}

// registerProfileMetrics mirrors the pinned run's live profile onto the
// registry: one scrape hook takes one engine Snapshot per scrape and
// refreshes every family from it. The families register on the first
// scrape after the run is pinned, so a fleet without one exposes none.
func registerProfileMetrics(reg *obs.Registry, fl *fleet.Fleet) {
	var once sync.Once
	var m *profileMetrics
	reg.AddScrapeHook(func() {
		_, e, ok := fl.Pinned()
		if !ok {
			return
		}
		once.Do(func() { m = newProfileMetrics(reg) })
		snap := e.Snapshot()
		m.update(&snap, e.ExplainQueries(), e.ProvenanceBytes())
		age, _ := e.IngestAge()
		m.ingestAge.Set(age.Seconds())
	})
}

// registerFleetMetrics exposes the fleet's backpressure counters and one
// staleness gauge per actively ingesting run. The staleness children are
// re-pointed at the current active set by a scrape hook — finished runs'
// series are deleted — under the hook's own lock, since concurrent scrapes
// run hooks concurrently.
func registerFleetMetrics(reg *obs.Registry, fl *fleet.Fleet) {
	reg.GaugeFunc("grade10_fleet_runs_active",
		"Runs currently ingesting (bounded by the admission scheduler).",
		func() float64 { a, _, _ := fl.Counts(); return float64(a) })
	reg.GaugeFunc("grade10_fleet_runs_queued",
		"Runs waiting in the admission backlog.",
		func() float64 { _, q, _ := fl.Counts(); return float64(q) })
	reg.GaugeFunc("grade10_fleet_runs_shed_total",
		"Registrations rejected because active slots and queue were full.",
		func() float64 { _, _, sh := fl.Counts(); return float64(sh) })
	staleness := reg.GaugeVec("grade10_fleet_run_staleness_seconds",
		"Wall-clock seconds since each active run last ingested input.", "run")
	var mu sync.Mutex
	seen := map[string]bool{}
	reg.AddScrapeHook(func() {
		ages := fl.Staleness()
		mu.Lock()
		defer mu.Unlock()
		for run := range seen {
			if _, live := ages[run]; !live {
				staleness.Delete(run)
				delete(seen, run)
			}
		}
		for run, age := range ages {
			staleness.With(run).Set(age)
			seen[run] = true
		}
	})
}

// registerArchiveMetrics registers the archive watchdog gauges.
func registerArchiveMetrics(reg *obs.Registry, a profstore.Archive, lastDiffRegressed *atomic.Int64) {
	reg.GaugeFunc("grade10_runs_stored", "Archived runs currently retained in the profile store.",
		func() float64 { return float64(a.Len()) })
	reg.GaugeFunc("grade10_runs_evicted_total", "Archived runs evicted by bounded retention since the store was created.",
		func() float64 { return float64(a.EvictedTotal()) })
	reg.GaugeFunc("grade10_last_diff_regressed", "1 when the most recent /diff verdict was regressed, else 0.",
		func() float64 { return float64(lastDiffRegressed.Load()) })
}

// registerHealthMetrics registers service uptime and the degraded flag
// /healthz reports.
func registerHealthMetrics(reg *obs.Registry, degraded func() (bool, string)) {
	start := time.Now()
	reg.GaugeFunc("grade10_uptime_seconds", "Wall-clock seconds since the service started.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("grade10_health_degraded",
		"1 when /healthz reports degraded (an active run's ingest older than the staleness threshold, a stalled or failed run, or a shed).",
		func() float64 { bad, _ := degraded(); return boolValue(bad) })
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
