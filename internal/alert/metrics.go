package alert

import (
	"sync"

	"grade10/internal/obs"
)

// metrics mirrors the evaluator's lifecycle into the ALERTS series.
type metrics struct {
	ev  *Evaluator
	vec *obs.GaugeVec

	mu   sync.Mutex
	seen map[[3]string]bool
}

// RegisterMetrics exposes the evaluator on a registry:
// grade10_alerts_firing, grade10_alert_events_total, grade10_alert_rules, and
// ALERTS{alertname,severity,alertstate} lifecycle series (value = number of
// instances of that rule in that state), rebuilt by a scrape hook so every
// scrape tracks the lifecycle.
func RegisterMetrics(reg *obs.Registry, ev *Evaluator) {
	m := &metrics{ev: ev, seen: map[[3]string]bool{}}
	reg.GaugeFunc("grade10_alerts_firing", "Alert instances currently firing.",
		func() float64 { return float64(ev.FiringCount()) })
	reg.GaugeFunc("grade10_alert_events_total", "Lifecycle transitions since start.",
		func() float64 { return float64(ev.EventsTotal()) })
	reg.GaugeFunc("grade10_alert_rules", "Alerting rules loaded.",
		func() float64 { return float64(len(ev.Rules())) })
	m.vec = reg.GaugeVec("ALERTS", "Alert lifecycle series (value = instances of the rule in the state).",
		"alertname", "severity", "alertstate")
	reg.AddScrapeHook(m.refresh)
}

// refresh rebuilds the ALERTS series from the evaluator state, deleting
// series for (rule, state) pairs no longer populated.
func (m *metrics) refresh() {
	snap := m.ev.Snapshot()
	counts := map[[3]string]int{}
	for _, inst := range snap.Instances {
		counts[[3]string{inst.Rule, string(inst.Severity), string(inst.State)}]++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.seen {
		if _, live := counts[k]; !live {
			m.vec.Delete(k[0], k[1], k[2])
			delete(m.seen, k)
		}
	}
	for k, n := range counts {
		m.vec.With(k[0], k[1], k[2]).Set(float64(n))
		m.seen[k] = true
	}
}
