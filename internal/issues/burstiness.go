package issues

import (
	"math"
	"sort"

	"grade10/internal/attribution"
)

// Burstiness quantifies how unevenly a resource is consumed at timeslice
// granularity — exactly the short-term structure that coarse monitoring
// averages away and Grade10's upsampling recovers (the paper contrasts
// itself with Tian et al. by capturing "burstiness" as an issue class).
type Burstiness struct {
	// InstanceKey identifies the resource instance ("cpu@0").
	InstanceKey string
	// CoV is the coefficient of variation (σ/μ) over the active span
	// (slices from the first to the last nonzero consumption): 0 for
	// perfectly smooth usage, >1 for heavily bursty usage.
	CoV float64
	// PeakToMean is max/mean over the span.
	PeakToMean float64
}

// DetectBurstiness computes per-instance burstiness over the upsampled
// profile. Instances with no consumption are omitted. Results are sorted by
// descending CoV.
func DetectBurstiness(prof *attribution.Profile) []Burstiness {
	var out []Burstiness
	for _, ip := range prof.Instances {
		first, last := -1, -1
		for k, c := range ip.Consumption {
			if c > 0 {
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		if first < 0 {
			continue
		}
		span := ip.Consumption[first : last+1]
		mean, maxV := 0.0, 0.0
		for _, c := range span {
			mean += c
			if c > maxV {
				maxV = c
			}
		}
		mean /= float64(len(span))
		variance := 0.0
		for _, c := range span {
			variance += (c - mean) * (c - mean)
		}
		variance /= float64(len(span))
		b := Burstiness{InstanceKey: ip.Instance.Key()}
		if mean > 0 {
			b.CoV = math.Sqrt(variance) / mean
			b.PeakToMean = maxV / mean
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CoV != out[j].CoV {
			return out[i].CoV > out[j].CoV
		}
		return out[i].InstanceKey < out[j].InstanceKey
	})
	return out
}
