package alert

import (
	"sort"

	"grade10/internal/profstore"
)

// Key identifies one baseline cell: one quantity of one phase type on one
// (machine, resource). Machine -1 is the machine-aggregated cell; Resource is
// empty for the duration quantity.
type Key struct {
	Quantity  string `json:"quantity"`
	PhasePath string `json:"phase_path"`
	Machine   int    `json:"machine"`
	Resource  string `json:"resource,omitempty"`
}

// Stat is the robust statistic of one baseline cell across the archive.
type Stat struct {
	// N is the number of archived runs the cell appeared in.
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// MAD is the median absolute deviation around Median.
	MAD float64 `json:"mad"`
	// EWMA folds the series in archive append order with DefaultAlpha.
	EWMA float64 `json:"ewma"`
}

// DefaultAlpha is the EWMA smoothing factor.
const DefaultAlpha = 0.3

// Baselines holds the archive-learned per-cell statistics.
type Baselines struct {
	stats map[Key]Stat
	runs  int
}

// Len returns the number of learned cells.
func (b *Baselines) Len() int {
	if b == nil {
		return 0
	}
	return len(b.stats)
}

// Runs returns the number of archived runs the baselines were learned from.
func (b *Baselines) Runs() int {
	if b == nil {
		return 0
	}
	return b.runs
}

// Lookup returns the statistic for one cell.
func (b *Baselines) Lookup(k Key) (Stat, bool) {
	if b == nil {
		return Stat{}, false
	}
	s, ok := b.stats[k]
	return s, ok
}

// Learn computes per-cell robust statistics from archived records. Records
// should be in archive append order (ascending Seq) — the EWMA folds in that
// order. A record contributes to a cell only when the cell appears in it, so
// a phase type absent from older runs does not drag the median to zero.
func Learn(recs []*profstore.Record) *Baselines {
	series := map[Key][]float64{}
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		for _, c := range recordCells(rec) {
			series[c.Key] = append(series[c.Key], c.Value)
		}
	}
	b := &Baselines{stats: make(map[Key]Stat, len(series)), runs: len(recs)}
	for k, vals := range series {
		b.stats[k] = summarize(vals)
	}
	return b
}

// LearnArchive learns baselines from every record retained in the archive,
// in append order. Records that fail to load (corrupt, future version) are
// skipped — baselines degrade gracefully rather than failing startup.
// The caller holds whatever lock guards the archive.
func LearnArchive(a profstore.Archive) *Baselines {
	metas := a.List()
	recs := make([]*profstore.Record, 0, len(metas))
	for _, m := range metas {
		rec, err := a.Get(m.ID)
		if err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	return Learn(recs)
}

func summarize(vals []float64) Stat {
	st := Stat{N: len(vals)}
	if len(vals) == 0 {
		return st
	}
	st.EWMA = vals[0]
	for _, v := range vals[1:] {
		st.EWMA = DefaultAlpha*v + (1-DefaultAlpha)*st.EWMA
	}
	st.Median = median(append([]float64(nil), vals...))
	dev := make([]float64, len(vals))
	for i, v := range vals {
		d := v - st.Median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	st.MAD = median(dev)
	return st
}

// median sorts its argument in place.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// CellValue is one observed baseline-comparable cell of a record.
type CellValue struct {
	Key   Key     `json:"key"`
	Value float64 `json:"value"`
}

// recordCells derives every baseline cell a record carries, in deterministic
// order (the record's slices are sorted; aggregates accumulate in that
// order):
//
//   - duration:   phase seconds per (phase type, machine) and the machine
//     aggregate (machine -1);
//   - blocked:    blocked seconds per (phase type, machine, resource) and the
//     machine aggregate;
//   - attributed: attributed unit·seconds per (phase type, resource),
//     machine-aggregated as the record stores them;
//   - bottleneck: detected-bottleneck seconds per (phase type, resource),
//     summed over kinds.
func recordCells(rec *profstore.Record) []CellValue {
	agg := map[Key]float64{}
	order := make([]Key, 0, len(rec.Phases)*2)
	add := func(k Key, v float64) {
		if _, ok := agg[k]; !ok {
			order = append(order, k)
		}
		agg[k] += v
	}
	for _, ps := range rec.Phases {
		secs := float64(ps.TotalNS) / 1e9
		add(Key{Quantity: QuantityDuration, PhasePath: ps.TypePath, Machine: ps.Machine}, secs)
		if ps.Machine != -1 {
			add(Key{Quantity: QuantityDuration, PhasePath: ps.TypePath, Machine: -1}, secs)
		}
		resources := make([]string, 0, len(ps.BlockedNS))
		for res := range ps.BlockedNS {
			resources = append(resources, res)
		}
		sort.Strings(resources)
		for _, res := range resources {
			bs := float64(ps.BlockedNS[res]) / 1e9
			add(Key{Quantity: QuantityBlocked, PhasePath: ps.TypePath, Machine: ps.Machine, Resource: res}, bs)
			if ps.Machine != -1 {
				add(Key{Quantity: QuantityBlocked, PhasePath: ps.TypePath, Machine: -1, Resource: res}, bs)
			}
		}
	}
	for _, c := range rec.Attribution {
		add(Key{Quantity: QuantityAttributed, PhasePath: c.TypePath, Machine: -1, Resource: c.Resource}, c.UnitSeconds)
	}
	for _, b := range rec.Bottlenecks {
		add(Key{Quantity: QuantityBottleneck, PhasePath: b.TypePath, Machine: -1, Resource: b.Resource},
			float64(b.TotalNS)/1e9)
	}
	out := make([]CellValue, len(order))
	for i, k := range order {
		out[i] = CellValue{Key: k, Value: agg[k]}
	}
	return out
}
