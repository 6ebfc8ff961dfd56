package issues

import (
	"grade10/internal/attribution"
	"grade10/internal/vtime"
)

// Underutilization summarizes the §II-R2 issue class the paper lists beside
// bottlenecks and imbalance: periods where the application has work in
// flight yet fails to push any resource anywhere near its capacity —
// typically a symptom of insufficient parallelism, lock convoys, or
// overly conservative configuration.
type Underutilization struct {
	// Threshold is the utilization fraction below which a slice counts as
	// underutilized.
	Threshold float64
	// Slices lists the underutilized timeslice indices: at least one leaf
	// phase active, yet every consumable resource instance below Threshold.
	Slices []int
	// Time is the summed duration of those slices.
	Time vtime.Duration
	// Fraction is Time over the profiled span.
	Fraction float64
}

// DetectUnderutilization scans the profile for slices where work was active
// (some attributed leaf, per the profile's activity table) but no consumable
// resource exceeded UnderutilizationThreshold·capacity.
func DetectUnderutilization(prof *attribution.Profile) Underutilization {
	u := Underutilization{Threshold: UnderutilizationThreshold}
	slices := prof.Slices
	var span vtime.Duration
	for k := 0; k < slices.Count; k++ {
		t0, t1 := slices.Bounds(k)
		span += t1.Sub(t0)
		if !prof.AnyActive(k) {
			continue
		}
		busy := false
		for _, ip := range prof.Instances {
			if ip.Consumption[k] >= UnderutilizationThreshold*ip.Instance.Resource.Capacity {
				busy = true
				break
			}
		}
		if !busy {
			u.Slices = append(u.Slices, k)
			u.Time += t1.Sub(t0)
		}
	}
	if span > 0 {
		u.Fraction = u.Time.Seconds() / span.Seconds()
	}
	return u
}
