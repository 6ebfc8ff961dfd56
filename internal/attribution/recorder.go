package attribution

import (
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Recorder receives provenance callbacks from an attribution pass: every
// demand estimate, upsampling allocation, and per-slice share split is
// reported as it is computed, so a consumer (internal/explain) can
// reconstruct the full derivation chain behind any attributed cell. Only
// the row-based oracle (the reference subpackage) emits these callbacks:
// explain recomputes the instances a query selects through it, so the
// columnar production path carries no capture hooks. The interfaces live
// here so both reference and explain depend on attribution without a cycle.
type Recorder interface {
	// InstanceRecorder returns the sink for one resource instance's
	// attribution job, or nil to skip that instance. i is the instance's
	// index in rt.Instances() order; each job runs serially on its own
	// sink.
	InstanceRecorder(i int, ri *core.ResourceInstance, slices core.Timeslices) InstanceRecorder
}

// InstanceRecorder is the per-instance provenance sink. Calls arrive in a
// deterministic order for a given input: Demand leaf-major during demand
// estimation (§III-D1), Upsample measurement-major during upsampling
// (§III-D2), then SliceSplit and Share slice-major during attribution
// (§III-D3).
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
