// Package fleet turns the per-run characterization pipeline into a
// multi-tenant service: a bounded admission scheduler feeds many concurrent
// stream engines, finalized runs land in the profile archive, and runs
// that declare shared machines (rundir.Info.Placement) get cross-job blame —
// each job's contended time split across the co-scheduled neighbors whose
// demand overlapped, after Kalmegh et al.'s contention-blame model.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/explain"
	"grade10/internal/grade10"
	"grade10/internal/par"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// blameEps guards divisions: demand below this is "idle".
const blameEps = 1e-9

// HostDemand is one run's resource demand on one shared host, resampled onto
// the fleet-wide blame grid (absolute virtual time, fixed slice width).
// Demand[i] is the average rate during blame slice First+i.
type HostDemand struct {
	Host     string    `json:"host"`
	Resource string    `json:"resource"`
	Machine  int       `json:"machine"` // run-local machine index
	Capacity float64   `json:"capacity"`
	First    int       `json:"first"`
	Demand   []float64 `json:"demand"`
}

// at returns the demand rate in blame slice k (zero outside the span).
func (h *HostDemand) at(k int) float64 {
	if k < h.First || k >= h.First+len(h.Demand) {
		return 0
	}
	return h.Demand[k-h.First]
}

// BlameProfile is one finalized run's contribution to the cross-job join:
// its demand per (host, resource, machine) over the shared blame grid. Runs
// without a placement manifest produce an empty profile (no shared hosts).
type BlameProfile struct {
	Run   string
	Hosts []HostDemand // sorted by (Host, Resource, Machine)
}

// BuildBlameProfile resamples a finalized run's attributed consumption onto
// the absolute blame grid (slice width `width`, origin at virtual t=0), one
// entry per monitored per-machine resource instance whose machine the
// placement manifest binds to a shared host. Instances are visited in the
// profile's deterministic order and each resample accumulates in slice
// order, so the result is bit-identical at every -parallelism.
func BuildBlameProfile(run string, info rundir.Info, out *grade10.Output, width vtime.Duration) *BlameProfile {
	if width <= 0 {
		width = grade10.DefaultTimeslice
	}
	bp := &BlameProfile{Run: run}
	if len(info.Placement) == 0 || out == nil {
		return bp
	}
	ts := out.Slices
	// The blame grid bounds depend only on the analyzed span and the slice
	// width, never on the instance, so every qualifying instance resamples
	// into an identical-length series: count them first and carve all demand
	// series out of one flat backing.
	first := int(ts.Start / vtime.Time(width))
	last := int((ts.End + vtime.Time(width) - 1) / vtime.Time(width))
	if last <= first {
		return bp
	}
	n := last - first
	shared := func(ip *attribution.InstanceProfile) string {
		if ip.Instance.Machine == core.GlobalMachine {
			return "" // cluster-global resources (barriers) are not host-shared
		}
		return info.HostOf(ip.Instance.Machine)
	}
	count := 0
	for _, ip := range out.Profile.Instances {
		if shared(ip) != "" {
			count++
		}
	}
	if count == 0 {
		return bp
	}
	backing := make([]float64, count*n)
	bp.Hosts = make([]HostDemand, 0, count)
	for _, ip := range out.Profile.Instances {
		host := shared(ip)
		if host == "" {
			continue
		}
		machine := ip.Instance.Machine
		demand := backing[:n:n]
		backing = backing[n:]
		for k := range demand {
			b0 := vtime.Time(int64(first+k) * int64(width))
			b1 := b0.Add(width)
			j0, j1 := ts.Range(vtime.Max(b0, ts.Start), vtime.Min(b1, ts.End))
			var unitNS float64
			for j := j0; j < j1; j++ {
				t0, t1 := ts.Bounds(j)
				lo, hi := vtime.Max(t0, b0), vtime.Min(t1, b1)
				if hi > lo {
					unitNS += ip.Consumption[j] * float64(hi.Sub(lo))
				}
			}
			demand[k] = unitNS / float64(width)
		}
		bp.Hosts = append(bp.Hosts, HostDemand{
			Host:     host,
			Resource: ip.Instance.Resource.Name,
			Machine:  machine,
			Capacity: ip.Instance.Resource.Capacity,
			First:    first,
			Demand:   demand,
		})
	}
	sort.Slice(bp.Hosts, func(i, j int) bool {
		a, b := bp.Hosts[i], bp.Hosts[j]
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Machine < b.Machine
	})
	return bp
}

// BlameConfig tunes the cross-job blame computation.
type BlameConfig struct {
	// SliceWidth is the blame grid granularity; default grade10's 10ms.
	// Profiles must have been built with the same width.
	SliceWidth vtime.Duration
	// Parallelism fans the per-(host, resource, machine) joins out over the
	// shared par pool; the report is byte-identical for every value.
	Parallelism int
}

func (c *BlameConfig) fill() {
	if c.SliceWidth <= 0 {
		c.SliceWidth = grade10.DefaultTimeslice
	}
}

// topEvidence bounds the evidence pointers kept per (neighbor, resource).
const topEvidence = 3

// Evidence is one explain-style pointer backing a blame share: the blame
// slice where the neighbor's overlapping demand contended with the target,
// with a ready-to-paste provenance query against the target run.
type Evidence struct {
	T0NS           int64   `json:"t0_ns"`
	T1NS           int64   `json:"t1_ns"`
	Machine        int     `json:"machine"`
	BlamedNS       float64 `json:"blamed_ns"`
	TargetDemand   float64 `json:"target_demand"`
	NeighborDemand float64 `json:"neighbor_demand"`
	Capacity       float64 `json:"capacity"`
	// ExplainQuery answers "what ran here?" against the target run:
	// grade10 -run <dir> -explain '<query>' or GET /explain?q=.
	ExplainQuery string `json:"explain_query"`
}

// ResourceBlame is one neighbor's share on one shared (host, resource) as
// seen from one of the target's machines.
type ResourceBlame struct {
	Host     string     `json:"host"`
	Resource string     `json:"resource"`
	Machine  int        `json:"machine"`
	BlamedNS float64    `json:"blamed_ns"`
	Evidence []Evidence `json:"evidence,omitempty"`
}

// NeighborBlame is the total slowdown of the target attributed to one
// co-scheduled neighbor run.
type NeighborBlame struct {
	Run       string          `json:"run"`
	BlamedNS  float64         `json:"blamed_ns"`
	Resources []ResourceBlame `json:"resources"`
}

// BlameReport is the cross-job blame verdict for one run: its total
// contended time on shared hosts, split across the neighbors whose demand
// overlapped. SelfNS plus every neighbor's BlamedNS sums to
// TotalContendedNS by construction (self absorbs the per-slice residual).
type BlameReport struct {
	Run          string `json:"run"`
	SliceWidthNS int64  `json:"slice_width_ns"`
	// TotalContendedNS is the virtual time (float ns) the run spent stretched
	// by overcommitted shared resources: per slice, the fraction of demand
	// above capacity under proportional sharing.
	TotalContendedNS float64 `json:"total_contended_ns"`
	// SelfNS is contention not attributable to any neighbor: the run alone
	// (or together with its own colocated machines) overcommitted the host.
	SelfNS    float64         `json:"self_ns"`
	Neighbors []NeighborBlame `json:"neighbors"`
}

// entryBlame is the join result of one target HostDemand entry. The maps
// are created lazily on the first contended slice, so entries that never
// contend cost no allocations.
type entryBlame struct {
	contended float64
	self      float64
	neighbors map[string]float64
	evidence  map[string][]Evidence
}

// blameScratch holds one join's transient participant lists, pooled across
// entries and Blame calls. The per-neighbor entry lists are flattened CSR
// style (neighbor ni owns entries [neighOff[ni], neighOff[ni+1])) so a join
// reuses four slices instead of allocating one per neighbor.
type blameScratch struct {
	selfOther []*HostDemand
	neighRun  []string
	neighOff  []int32
	neighEnt  []*HostDemand
	shares    []float64
}

var blameScratchPool = sync.Pool{New: func() any { return new(blameScratch) }}

func acquireBlameScratch() *blameScratch {
	s := blameScratchPool.Get().(*blameScratch)
	s.selfOther = s.selfOther[:0]
	s.neighRun = s.neighRun[:0]
	s.neighOff = s.neighOff[:0]
	s.neighEnt = s.neighEnt[:0]
	s.shares = s.shares[:0]
	return s
}

// release clears the pointer slots so a pooled scratch never pins retired
// blame profiles, then returns the scratch to the pool.
func (s *blameScratch) release() {
	for i := range s.selfOther {
		s.selfOther[i] = nil
	}
	for i := range s.neighEnt {
		s.neighEnt[i] = nil
	}
	for i := range s.neighRun {
		s.neighRun[i] = ""
	}
	blameScratchPool.Put(s)
}

// Blame joins the target run's demand timeline against its co-scheduled
// neighbors per (host, resource, time-slice) and splits the target's
// contended time across the neighbors whose demand overlapped.
//
// Model: in a blame slice where the combined demand D on a shared (host,
// resource) exceeds capacity C, proportional sharing stretches every
// demanding job by D/C, so the target loses (D-C)/D of the slice. That loss
// is split across the other participants by their demand share; the part
// caused by the target's own colocated machines — or by nobody (the target
// alone overcommitted) — is self-blame. Entries fan out over the shared par
// pool and merge in deterministic entry order, so the report is
// byte-identical at every parallelism.
func Blame(profiles []*BlameProfile, target string, cfg BlameConfig) (*BlameReport, error) {
	cfg.fill()
	var tp *BlameProfile
	others := make([]*BlameProfile, 0, len(profiles))
	for _, p := range profiles {
		if p.Run == target {
			tp = p
		} else {
			others = append(others, p)
		}
	}
	if tp == nil {
		return nil, fmt.Errorf("fleet: no finalized run %q to blame", target)
	}
	sort.Slice(others, func(i, j int) bool { return others[i].Run < others[j].Run })

	results := make([]entryBlame, len(tp.Hosts))
	par.Do(len(tp.Hosts), cfg.Parallelism, func(i int) {
		results[i] = blameEntry(&tp.Hosts[i], tp, others, cfg)
	})

	rep := &BlameReport{Run: target, SliceWidthNS: int64(cfg.SliceWidth)}
	byRun := map[string]*NeighborBlame{}
	for i := range results {
		r := &results[i]
		rep.TotalContendedNS += r.contended
		rep.SelfNS += r.self
		for _, o := range others {
			share, ok := r.neighbors[o.Run]
			if !ok {
				continue
			}
			nb := byRun[o.Run]
			if nb == nil {
				nb = &NeighborBlame{Run: o.Run}
				byRun[o.Run] = nb
			}
			nb.BlamedNS += share
			e := tp.Hosts[i]
			nb.Resources = append(nb.Resources, ResourceBlame{
				Host: e.Host, Resource: e.Resource, Machine: e.Machine,
				BlamedNS: share, Evidence: r.evidence[o.Run],
			})
		}
	}
	for _, nb := range byRun {
		rep.Neighbors = append(rep.Neighbors, *nb)
	}
	sort.Slice(rep.Neighbors, func(i, j int) bool {
		a, b := rep.Neighbors[i], rep.Neighbors[j]
		if a.BlamedNS != b.BlamedNS {
			return a.BlamedNS > b.BlamedNS
		}
		return a.Run < b.Run
	})
	return rep, nil
}

// blameEntry joins one target (host, resource, machine) demand series
// against every overlapping participant, slice by slice.
func blameEntry(e *HostDemand, tp *BlameProfile, others []*BlameProfile, cfg BlameConfig) entryBlame {
	var out entryBlame
	w := float64(cfg.SliceWidth) // ns

	sc := acquireBlameScratch()
	defer sc.release()

	// Participants sharing (host, resource): the target's own other
	// machines first (self-contention), then neighbors in run order.
	for i := range tp.Hosts {
		o := &tp.Hosts[i]
		if o != e && o.Host == e.Host && o.Resource == e.Resource {
			sc.selfOther = append(sc.selfOther, o)
		}
	}
	sc.neighOff = append(sc.neighOff, 0)
	for _, p := range others {
		mark := len(sc.neighEnt)
		for i := range p.Hosts {
			o := &p.Hosts[i]
			if o.Host == e.Host && o.Resource == e.Resource {
				sc.neighEnt = append(sc.neighEnt, o)
			}
		}
		if len(sc.neighEnt) > mark {
			sc.neighRun = append(sc.neighRun, p.Run)
			sc.neighOff = append(sc.neighOff, int32(len(sc.neighEnt)))
		}
	}
	nNeigh := len(sc.neighRun)
	if cap(sc.shares) < nNeigh {
		sc.shares = make([]float64, nNeigh)
	}
	shares := sc.shares[:nNeigh]

	for k := e.First; k < e.First+len(e.Demand); k++ {
		dT := e.at(k)
		if dT <= blameEps {
			continue // the target demanded nothing: no slowdown to blame
		}
		dSelf := 0.0
		for _, o := range sc.selfOther {
			dSelf += o.at(k)
		}
		dOthers := 0.0
		for ni := 0; ni < nNeigh; ni++ {
			shares[ni] = 0
			for _, o := range sc.neighEnt[sc.neighOff[ni]:sc.neighOff[ni+1]] {
				shares[ni] += o.at(k)
			}
			dOthers += shares[ni]
		}
		total := dT + dSelf + dOthers
		cap := e.Capacity
		if cap <= blameEps || total <= cap+blameEps {
			continue // within capacity: no contention
		}
		contended := w * (total - cap) / total
		out.contended += contended
		rest := dSelf + dOthers
		slice := contended
		if rest > blameEps {
			if out.neighbors == nil {
				out.neighbors = map[string]float64{}
				out.evidence = map[string][]Evidence{}
			}
			for ni := 0; ni < nNeigh; ni++ {
				if shares[ni] <= blameEps {
					continue
				}
				share := contended * shares[ni] / rest
				out.neighbors[sc.neighRun[ni]] += share
				slice -= share
				t0, t1 := int64(k)*int64(cfg.SliceWidth), int64(k+1)*int64(cfg.SliceWidth)
				out.evidence[sc.neighRun[ni]] = keepTopEvidence(
					out.evidence[sc.neighRun[ni]], Evidence{
						T0NS:           t0,
						T1NS:           t1,
						Machine:        e.Machine,
						BlamedNS:       share,
						TargetDemand:   dT,
						NeighborDemand: shares[ni],
						Capacity:       cap,
						ExplainQuery: explain.Query{Resource: e.Resource, Machine: e.Machine, HasMachine: true,
							T0: vtime.Time(t0), T1: vtime.Time(t1), HasRange: true}.String(),
					})
			}
		}
		// The residual — self-contention plus float round-off — is self,
		// keeping self + Σ neighbors ≡ contended per slice.
		out.self += slice
	}
	return out
}

// keepTopEvidence inserts ev into a list bounded at topEvidence, ranked by
// blamed time descending with earlier slices first on ties. The list is
// always sorted on entry, so bubbling the new element into place suffices —
// no sort.Slice, no per-insertion allocations on this hot path.
func keepTopEvidence(list []Evidence, ev Evidence) []Evidence {
	if len(list) == topEvidence {
		last := &list[topEvidence-1]
		if ev.BlamedNS < last.BlamedNS ||
			(ev.BlamedNS == last.BlamedNS && ev.T0NS >= last.T0NS) {
			return list // would be evicted immediately: skip the append
		}
		list[topEvidence-1] = ev
	} else {
		list = append(list, ev)
	}
	for i := len(list) - 1; i > 0; i-- {
		prev := &list[i-1]
		if list[i].BlamedNS > prev.BlamedNS ||
			(list[i].BlamedNS == prev.BlamedNS && list[i].T0NS < prev.T0NS) {
			list[i-1], list[i] = list[i], list[i-1]
		} else {
			break
		}
	}
	return list
}

// WriteBlameJSON writes the report as indented JSON.
func WriteBlameJSON(w io.Writer, rep *BlameReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteBlameText renders the report for humans: the contended total, the
// per-neighbor split, and the evidence pointers to paste into -explain.
func WriteBlameText(w io.Writer, rep *BlameReport) error {
	fmt.Fprintf(w, "cross-job blame for run %q\n", rep.Run)
	fmt.Fprintf(w, "  contended: %s on shared hosts (%s self)\n",
		nsDur(rep.TotalContendedNS), nsDur(rep.SelfNS))
	if len(rep.Neighbors) == 0 {
		_, err := fmt.Fprintln(w, "  no co-scheduled neighbor overlapped its demand")
		return err
	}
	for _, nb := range rep.Neighbors {
		frac := 0.0
		if rep.TotalContendedNS > 0 {
			frac = nb.BlamedNS / rep.TotalContendedNS
		}
		fmt.Fprintf(w, "  neighbor %q: %s (%.1f%% of contention)\n",
			nb.Run, nsDur(nb.BlamedNS), 100*frac)
		for _, rb := range nb.Resources {
			fmt.Fprintf(w, "    %s × %s @ machine %d: %s\n",
				rb.Host, rb.Resource, rb.Machine, nsDur(rb.BlamedNS))
			for _, ev := range rb.Evidence {
				fmt.Fprintf(w, "      %s..%s demand %.2f+%.2f of %.2f — explain: %s\n",
					vtime.Time(ev.T0NS), vtime.Time(ev.T1NS),
					ev.TargetDemand, ev.NeighborDemand, ev.Capacity, ev.ExplainQuery)
			}
		}
	}
	return nil
}

func nsDur(ns float64) string { return vtime.Duration(ns).String() }
