package profdiff

import (
	"sort"

	"grade10/internal/profstore"
)

// Regression is one verdict between consecutive archived runs of the same
// configuration.
type Regression struct {
	Engine  string `json:"engine"`
	Job     string `json:"job"`
	Workers int    `json:"workers"`
	BaseID  string `json:"base_id"`
	NewID   string `json:"new_id"`
	Verdict string `json:"verdict"`
	// MakespanRelChange is (new-base)/base; positive is slower.
	MakespanRelChange float64 `json:"makespan_rel_change"`
	BaseMakespanNS    int64   `json:"base_makespan_ns"`
	NewMakespanNS     int64   `json:"new_makespan_ns"`
}

// Regressions diffs consecutive archived runs of the same (engine, job,
// workers) configuration and ranks the verdicts by |relative makespan
// change|, returning the top k (k<=0 means all). Verdicts use
// DefaultThreshold. Corrupt records are skipped, not fatal.
func Regressions(a profstore.Archive, k int) []Regression {
	metas := a.List()
	type key struct {
		engine, job string
		workers     int
	}
	groups := map[key][]profstore.Meta{}
	var order []key
	for _, m := range metas { // List is Seq-ascending already
		kk := key{m.Engine, m.Job, m.Workers}
		if _, ok := groups[kk]; !ok {
			order = append(order, kk)
		}
		groups[kk] = append(groups[kk], m)
	}
	var out []Regression
	for _, kk := range order {
		ms := groups[kk]
		for i := 1; i < len(ms); i++ {
			base, err := a.Get(ms[i-1].ID)
			if err != nil {
				continue // corrupt or evicted: skip the pair
			}
			next, err := a.Get(ms[i].ID)
			if err != nil {
				continue
			}
			rep, err := Diff(base, next, DefaultThreshold)
			if err != nil {
				continue
			}
			out = append(out, Regression{
				Engine: kk.engine, Job: kk.job, Workers: kk.workers,
				BaseID: base.ID, NewID: next.ID,
				Verdict:           string(rep.Verdict),
				MakespanRelChange: rep.MakespanRelChange,
				BaseMakespanNS:    base.MakespanNS,
				NewMakespanNS:     next.MakespanNS,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := absf(out[i].MakespanRelChange), absf(out[j].MakespanRelChange)
		if ai != aj {
			return ai > aj
		}
		if out[i].NewID != out[j].NewID {
			return out[i].NewID < out[j].NewID
		}
		return out[i].BaseID < out[j].BaseID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
