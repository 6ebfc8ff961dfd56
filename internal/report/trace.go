// Chrome trace-event export: renders a characterization as a timeline
// loadable in Perfetto or chrome://tracing. Two event groups share the file:
//
//   - The pipeline's self-trace (pid 1): one thread track per worker-pool
//     lane, with the spans the analysis stages recorded about themselves.
//     Timestamps are wall-clock microseconds since the tracer epoch.
//
//   - The analyzed job's profile (one pid per machine): the phase hierarchy
//     as nested duration slices — overlapping siblings (worker threads) are
//     spread across lanes — the per-instance upsampled consumption as
//     counter tracks, and detected bottlenecks as instant events.
//     Timestamps are virtual-time microseconds.
package report

import (
	"fmt"
	"io"
	"sort"

	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/obs"
)

// selfPID is the pid of the pipeline self-trace; machine pids follow.
const selfPID = 1
const machinePIDBase = 100

// WriteTraceEvents writes the combined trace as Chrome trace-event JSON.
// out may be nil (self-trace only, e.g. runsim) and tracer may be nil
// (job profile only); output is byte-stable for identical inputs.
func WriteTraceEvents(w io.Writer, out *grade10.Output, tracer *obs.Tracer) error {
	b, err := BuildTraceEvents(out, tracer)
	if err != nil {
		return err
	}
	return b.WriteJSON(w)
}

// BuildTraceEvents assembles the trace-event set; split from the writer so
// tests can validate the events before serialization.
func BuildTraceEvents(out *grade10.Output, tracer *obs.Tracer) (*obs.TraceBuilder, error) {
	b := obs.NewTraceBuilder()
	if tracer != nil {
		if err := addSelfTrace(b, tracer); err != nil {
			return nil, err
		}
	}
	if out != nil {
		if err := addJobProfile(b, out); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// interval is one placed slice: a span or a phase, normalized to µs.
type interval struct {
	name     string
	startUS  int64
	endUS    int64
	args     map[string]any
	ord      int // deterministic tie-breaker (span seq / DFS order)
	preferTo *interval
	lane     int
}

// emitLane writes one lane's intervals as properly nested B/E pairs. The
// intervals must already be sorted by (start asc, end desc, ord asc) and obey
// stack discipline (any two either nest or are disjoint).
func emitLane(b *obs.TraceBuilder, pid, tid int, ivs []*interval) {
	var stack []*interval
	for _, iv := range ivs {
		for len(stack) > 0 && stack[len(stack)-1].endUS <= iv.startUS {
			b.End(pid, tid, stack[len(stack)-1].endUS)
			stack = stack[:len(stack)-1]
		}
		b.Begin(pid, tid, iv.name, iv.startUS, iv.args)
		stack = append(stack, iv)
	}
	for len(stack) > 0 {
		b.End(pid, tid, stack[len(stack)-1].endUS)
		stack = stack[:len(stack)-1]
	}
}

// sortIntervals orders for containment sweep: outer before inner.
func sortIntervals(ivs []*interval) {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].startUS != ivs[j].startUS {
			return ivs[i].startUS < ivs[j].startUS
		}
		if ivs[i].endUS != ivs[j].endUS {
			return ivs[i].endUS > ivs[j].endUS
		}
		return ivs[i].ord < ivs[j].ord
	})
}

// assignLanes places intervals on the fewest lanes such that every lane is a
// valid B/E stack: two intervals share a lane only when nested or disjoint.
// An interval prefers its preferTo's lane (its parent phase), so a phase tree
// renders as nested slices and only overlapping siblings spill to new lanes.
// Call with intervals sorted by sortIntervals. Returns the lane count.
func assignLanes(ivs []*interval) int {
	type laneState struct{ open []*interval }
	var lanes []*laneState
	fits := func(l *laneState, iv *interval) bool {
		open := l.open
		for len(open) > 0 && open[len(open)-1].endUS <= iv.startUS {
			open = open[:len(open)-1]
		}
		l.open = open
		return len(open) == 0 || open[len(open)-1].endUS >= iv.endUS
	}
	place := func(l *laneState, iv *interval, lane int) {
		l.open = append(l.open, iv)
		iv.lane = lane
	}
	for _, iv := range ivs {
		if p := iv.preferTo; p != nil && fits(lanes[p.lane], iv) {
			place(lanes[p.lane], iv, p.lane)
			continue
		}
		placed := false
		for li, l := range lanes {
			if fits(l, iv) {
				place(l, iv, li)
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, &laneState{})
			place(lanes[len(lanes)-1], iv, len(lanes)-1)
		}
	}
	return len(lanes)
}

// addSelfTrace renders the tracer's spans: tid 0 is the main goroutine
// (worker -1), tid w+1 is pool lane w.
func addSelfTrace(b *obs.TraceBuilder, tracer *obs.Tracer) error {
	spans := tracer.Spans()
	b.ProcessName(selfPID, "grade10 pipeline (self-trace)")
	b.ProcessSortIndex(selfPID, 0)

	byLane := map[int][]*interval{}
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"seq": s.Seq}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Items >= 0 {
			args["items"] = s.Items
		}
		if s.HasWindow {
			args["vstart_us"] = s.VStartNS / 1e3
			args["vend_us"] = s.VEndNS / 1e3
		}
		tid := s.Worker + 1
		byLane[tid] = append(byLane[tid], &interval{
			name:    s.Stage,
			startUS: s.Start.Microseconds(),
			endUS:   (s.Start + s.Dur).Microseconds(),
			args:    args,
			ord:     int(s.Seq),
		})
	}
	tids := make([]int, 0, len(byLane))
	for tid := range byLane {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if tid == 0 {
			b.ThreadName(selfPID, 0, "main")
		} else {
			b.ThreadName(selfPID, tid, fmt.Sprintf("worker %d", tid-1))
		}
		b.ThreadSortIndex(selfPID, tid, tid)
		ivs := byLane[tid]
		sortIntervals(ivs)
		emitLane(b, selfPID, tid, ivs)
	}
	if d := tracer.Dropped(); d > 0 {
		b.Instant(selfPID, 0, fmt.Sprintf("spans dropped: %d", d), 0, "p", nil)
	}
	return nil
}

// machinePID maps a machine id to its trace pid; core.GlobalMachine and
// unbound phases share the "global" pid.
func machinePID(machine int, pids map[int]int) int { return pids[machine] }

// addJobProfile renders the analyzed job: one pid per machine with the phase
// hierarchy as lane-assigned nested slices, the attribution consumption as
// counter tracks, and bottlenecks as instant events.
func addJobProfile(b *obs.TraceBuilder, out *grade10.Output) error {
	// Collect the machine set from phases and resource instances.
	machineSet := map[int]bool{}
	out.Trace.Root.Walk(func(p *core.Phase) {
		m := p.Machine
		if m < 0 {
			m = core.GlobalMachine
		}
		machineSet[m] = true
	})
	if out.Profile != nil {
		for _, ip := range out.Profile.Instances {
			machineSet[ip.Instance.Machine] = true
		}
	}
	machines := make([]int, 0, len(machineSet))
	for m := range machineSet {
		machines = append(machines, m)
	}
	sort.Ints(machines) // GlobalMachine (-1) sorts first
	pids := map[int]int{}
	for i, m := range machines {
		pid := machinePIDBase + i
		pids[m] = pid
		name := fmt.Sprintf("machine %d", m)
		if m == core.GlobalMachine {
			name = "global"
		}
		b.ProcessName(pid, "job: "+name)
		b.ProcessSortIndex(pid, 1+i)
	}

	// Phase hierarchy: group phases per machine pid in DFS order, so a
	// parent precedes its children and lane preference keeps subtrees
	// together.
	byPID := map[int][]*interval{}
	ivOf := map[*core.Phase]*interval{}
	ord := 0
	out.Trace.Root.Walk(func(p *core.Phase) {
		if p == out.Trace.Root {
			return
		}
		ord++
		m := p.Machine
		if m < 0 {
			m = core.GlobalMachine
		}
		pid := machinePID(m, pids)
		args := map[string]any{"path": p.Path, "machine": p.Machine}
		if len(p.Blocked) > 0 {
			args["blocked_intervals"] = len(p.Blocked)
		}
		iv := &interval{
			name:    phaseLabel(p),
			startUS: int64(p.Start) / 1e3,
			endUS:   int64(p.End) / 1e3,
			args:    args,
			ord:     ord,
		}
		if parent := ivOf[p.Parent]; parent != nil {
			// Prefer the parent's lane only within the same pid.
			pm := p.Parent.Machine
			if pm < 0 {
				pm = core.GlobalMachine
			}
			if machinePID(pm, pids) == pid {
				iv.preferTo = parent
			}
		}
		ivOf[p] = iv
		byPID[pid] = append(byPID[pid], iv)
	})
	for _, m := range machines {
		pid := pids[m]
		ivs := byPID[pid]
		// Lane assignment needs containment order; DFS order already puts
		// parents first, but siblings may start out of µs-order after
		// truncation, so re-sort.
		sortIntervals(ivs)
		lanes := assignLanes(ivs)
		perLane := make([][]*interval, lanes)
		for _, iv := range ivs {
			perLane[iv.lane] = append(perLane[iv.lane], iv)
		}
		for lane := 0; lane < lanes; lane++ {
			b.ThreadName(pid, lane, fmt.Sprintf("phases %d", lane))
			b.ThreadSortIndex(pid, lane, lane)
			emitLane(b, pid, lane, perLane[lane])
		}
	}

	// Attribution consumption as counter tracks, one per resource instance,
	// sampled at slice starts and emitted only on change to bound file size.
	if out.Profile != nil {
		slices := out.Profile.Slices
		for _, ip := range out.Profile.Instances {
			pid := machinePID(ip.Instance.Machine, pids)
			name := "util " + ip.Instance.Key()
			prev := -1.0
			for k := 0; k < slices.Count; k++ {
				v := ip.Consumption[k]
				if v == prev && k != slices.Count-1 {
					continue
				}
				t0, _ := slices.Bounds(k)
				b.Counter(pid, name, int64(t0)/1e3, map[string]float64{"rate": v})
				prev = v
			}
			if slices.Count > 0 {
				b.Counter(pid, name, int64(slices.End)/1e3, map[string]float64{"rate": 0})
			}
		}
	}

	// Bottlenecks as instant events anchored at the affected phase's start,
	// on a dedicated per-machine track so their timestamps stay monotone.
	if out.Bottlenecks != nil {
		const btlTID = 999
		type instant struct {
			pid  int
			ts   int64
			name string
			args map[string]any
		}
		var instants []instant
		seenPID := map[int]bool{}
		for i := range out.Bottlenecks.Bottlenecks {
			pb := &out.Bottlenecks.Bottlenecks[i]
			m := pb.Phase.Machine
			if m < 0 {
				m = core.GlobalMachine
			}
			pid := machinePID(m, pids)
			if !seenPID[pid] {
				seenPID[pid] = true
				b.ThreadName(pid, btlTID, "bottlenecks")
				b.ThreadSortIndex(pid, btlTID, btlTID)
			}
			instants = append(instants, instant{pid, int64(pb.Phase.Start) / 1e3,
				bottleneckLabel(pb), map[string]any{
					"phase":    pb.Phase.Path,
					"resource": pb.Resource,
					"kind":     pb.Kind.String(),
					"time_us":  int64(pb.Time) / 1e3,
				}})
		}
		sort.SliceStable(instants, func(i, j int) bool {
			if instants[i].pid != instants[j].pid {
				return instants[i].pid < instants[j].pid
			}
			return instants[i].ts < instants[j].ts
		})
		for _, in := range instants {
			b.Instant(in.pid, btlTID, in.name, in.ts, "t", in.args)
		}
	}
	return nil
}

// phaseLabel is the slice name: the final path segment, so nested slices
// read like the tree ("superstep.2", "worker.0").
func phaseLabel(p *core.Phase) string {
	path := p.Path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func bottleneckLabel(pb *bottleneck.PhaseBottleneck) string {
	return "bottleneck " + pb.Resource + " (" + pb.Kind.String() + ")"
}
