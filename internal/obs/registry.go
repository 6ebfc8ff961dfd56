package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// EscapeLabel escapes a Prometheus label value per the text exposition
// specification: backslash, double-quote, and newline must be escaped, in
// that order of substitution (backslash first, so the escapes themselves are
// not re-escaped).
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// formatLabels renders {k1="v1",k2="v2"} with escaped values, or "" when
// there are no labels.
func formatLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing float64 metric.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters never go
// down).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set overwrites the count. It is for counters that mirror a cumulative
// total kept elsewhere (an engine's ingest counters), refreshed from a scrape
// hook; everything else counts with Add.
func (c *Counter) Set(v float64) {
	if c == nil {
		return
	}
	c.bits.Store(math.Float64bits(v))
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// spanning 100µs to 10s — the range pipeline stages actually land in.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			break
		}
	}
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts, the sum, and the total count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// metricKind distinguishes exposition types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// child is one labeled instance of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	gaugeFn     func() float64
	histogram   *Histogram
}

// family is one metric family: a name, help text, a type, label keys, and
// its labeled children (one unlabeled child when labelKeys is empty).
type family struct {
	name      string
	help      string
	kind      metricKind
	labelKeys []string
	buckets   []float64

	mu       sync.Mutex
	children map[string]*child
	order    []string // sorted label-value keys for stable output
}

func (f *family) get(labelValues []string) *child {
	if len(labelValues) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			f.name, len(f.labelKeys), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		case kindHistogram:
			c.histogram = &Histogram{
				bounds: f.buckets,
				counts: make([]uint64, len(f.buckets)),
			}
		}
		f.children[key] = c
		i := sort.SearchStrings(f.order, key)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = key
	}
	return c
}

// delete removes one labeled child; missing children are a no-op.
func (f *family) delete(labelValues []string) {
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		return
	}
	delete(f.children, key)
	if i := sort.SearchStrings(f.order, key); i < len(f.order) && f.order[i] == key {
		f.order = append(f.order[:i], f.order[i+1:]...)
	}
}

// Registry holds metric families and renders them in Prometheus text format.
// Families appear in registration order; children within a family in sorted
// label-value order — so repeated scrapes of the same state are
// byte-identical.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	hooks    []func()
}

// AddScrapeHook registers a function run at the start of every WriteText —
// the refresh point for labeled gauge families that mirror external state
// (per-run overhead, staleness) and so cannot be plain GaugeFuncs. Hooks run
// outside the registry lock and may create or delete children.
func (r *Registry) AddScrapeHook(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, labelKeys []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind {
			panic("obs: metric " + name + " re-registered with a different type")
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind,
		labelKeys: append([]string(nil), labelKeys...),
		buckets:   buckets, children: map[string]*child{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil).counter
}

// CounterVec registers a labeled counter family; With resolves children.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	f := r.family(name, help, kindCounter, labelKeys, nil)
	return &CounterVec{f: f}
}

// GaugeVec registers a labeled gauge family; With resolves children and
// Delete drops them (per-run gauges disappear when their run tears down).
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	f := r.family(name, help, kindGauge, labelKeys, nil)
	return &GaugeVec{f: f}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil).gauge
}

// GaugeFunc registers a gauge evaluated at scrape time — used for runtime
// stats (goroutines, heap) and engine-derived values (ingest staleness).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[""]; ok {
		c.gaugeFn = fn
		return
	}
	f.children[""] = &child{gaugeFn: fn}
	f.order = append(f.order, "")
}

// HistogramVec registers a labeled histogram family (nil = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, kindHistogram, labelKeys, buckets)
	return &HistogramVec{f: f}
}

// GaugeVec resolves labeled gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValues).gauge
}

// Delete removes the child with the given label values from the exposition;
// a missing child is a no-op.
func (v *GaugeVec) Delete(labelValues ...string) {
	if v == nil || v.f == nil {
		return
	}
	v.f.delete(labelValues)
}

// CounterVec resolves labeled counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValues).counter
}

// HistogramVec resolves labeled histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValues).histogram
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every family in Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, len(order))
	for i, name := range order {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		for _, c := range children {
			labels := formatLabels(f.labelKeys, c.labelValues)
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatValue(c.counter.Value()))
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatValue(c.gauge.Value()))
			case kindGaugeFunc:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatValue(c.gaugeFn()))
			case kindHistogram:
				err = writeHistogram(w, f, c, labels)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, f *family, c *child, labels string) error {
	cum, sum, count := c.histogram.snapshot()
	// The le label joins any existing labels inside one brace pair.
	leLabel := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	for i, b := range f.buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, leLabel(formatValue(b)), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, leLabel("+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, count)
	return err
}
