package attribution

import (
	"fmt"

	"grade10/internal/core"
	"grade10/internal/obs"
	"grade10/internal/par"
	"grade10/internal/vtime"
)

// Recorder receives provenance callbacks from the attribution pass: every
// demand estimate, upsampling allocation, and per-slice share split is
// reported as it is computed, so a consumer (internal/explain) can later
// reconstruct the full derivation chain behind any attributed cell. The
// interface lives here — in the instrumented package — so explain can depend
// on attribution without a cycle.
//
// A nil Recorder disables capture at zero cost: every call site is guarded
// by a nil check on the per-instance sink, and the guarded branches add no
// allocations (see the nil-recorder guard in bench_test.go).
type Recorder interface {
	// InstanceRecorder returns the sink for one resource instance's
	// attribution job, or nil to skip that instance. i is the instance's
	// index in rt.Instances() order; each job runs serially on its own
	// sink, so implementations need no locking inside the sink and can
	// merge shards in index order for deterministic output.
	InstanceRecorder(i int, ri *core.ResourceInstance, slices core.Timeslices) InstanceRecorder
}

// InstanceRecorder is the per-instance provenance sink. Calls arrive in a
// deterministic order for a given input, independent of the worker count:
// Demand leaf-major during demand estimation (§III-D1), Upsample
// measurement-major during upsampling (§III-D2), then SliceSplit and Share
// slice-major during attribution (§III-D3).
type InstanceRecorder interface {
	// Demand records one phase's rule firing in slice k: the rule and the
	// phase's active fraction of the slice. Estimated demand is
	// rule.Amount × activity.
	Demand(k int, phase *core.Phase, rule core.Rule, activity float64)
	// Upsample records the unit·seconds one monitoring measurement
	// [mStart, mEnd) of average rate avg allocated into slice k.
	Upsample(k int, mStart, mEnd vtime.Time, avg, allocUnitSeconds float64)
	// SliceSplit records the slice-level split context: the upsampled
	// consumption rate, the Exact and Variable demand pools of the active
	// phases, the scarcity scale applied to Exact shares, and the
	// remainder rate water-filled across Variable phases.
	SliceSplit(k int, consumption, totalExact, totalVarW, exactScale, remainder float64)
	// Share records one phase's attributed rate in slice k (§III-D3):
	// Exact phases get rule.Amount × activity × exactScale, Variable
	// phases remainder × weight/totalVarW.
	Share(k int, phase *core.Phase, rule core.Rule, activity, share float64)
}

// AttributeWindow runs the attribution process restricted to the window
// covered by the slices argument: monitoring samples are clipped to the
// window, and leaves contribute only the activity that falls inside it. The
// batch path and the online path (internal/stream) share this one
// implementation; the window is simply the whole run in the batch case.
//
// leaves is the candidate leaf set, normally tr.Leaves() or, when streaming,
// the phases known to overlap the window; phases outside the window are
// harmless (they contribute no demand and are pruned from the usage list).
// The caller must sort leaves with core.SortPhases, the order tr.Leaves()
// returns, so per-slice floating-point accumulation is deterministic.
//
// Instances are attributed concurrently over workers goroutines
// (0 = par.Default()) — each (resource, machine) pair is independent — and
// merged into the profile in the deterministic rt.Instances() order, so the
// result is identical for every worker count.
//
// A non-nil tracer receives one span per per-instance attribution job and
// its inner upsampling step, tagged with the worker lane that ran it and the
// virtual-time window attributed. A non-nil rec receives the full derivation
// chain of every attributed cell. With both nil it is byte-for-byte the same
// computation and allocates nothing extra: every span and provenance call is
// a nil no-op on this hot path.
func AttributeWindow(tr *core.ExecutionTrace, leaves []*core.Phase, rt *core.ResourceTrace,
	rules *core.RuleSet, slices core.Timeslices, workers int, tracer *obs.Tracer,
	rec Recorder) (*Profile, error) {
	if slices.Count == 0 {
		return nil, fmt.Errorf("attribution: empty timeslice span")
	}
	instances := rt.Instances()
	prof := &Profile{Trace: tr, Slices: slices, Rules: rules,
		Instances: make([]*InstanceProfile, 0, len(instances)),
		byKey:     make(map[string]*InstanceProfile, len(instances)),
		anyActive: make([]bool, slices.Count)}
	act := newActivity(leaves, slices, prof.anyActive)
	results := make([]*InstanceProfile, len(instances))
	errs := make([]error, len(instances))
	par.DoWithWorker(len(instances), workers, func(worker, i int) {
		span := tracer.StartSpan("attribute-instance", worker)
		if tracer.Enabled() {
			// Key() formats a string; only pay for it when tracing is on.
			span.SetDetail(instances[i].Key())
			span.SetItems(int64(slices.Count))
			span.SetWindow(int64(slices.Start), int64(slices.End))
		}
		var ir InstanceRecorder
		if rec != nil {
			ir = rec.InstanceRecorder(i, instances[i], slices)
		}
		results[i], errs[i] = attributeInstance(instances[i], leaves, &act, rules, slices, tracer, worker, ir)
		span.End()
	})
	for i, ri := range instances {
		if errs[i] != nil {
			return nil, errs[i]
		}
		prof.Instances = append(prof.Instances, results[i])
		prof.byKey[ri.Key()] = results[i]
	}
	return prof, nil
}
