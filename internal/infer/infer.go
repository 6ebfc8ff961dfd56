// Package infer implements the paper's §V ongoing work of reducing expert
// input: "using machine learning techniques to infer resource attribution
// rules". Given one execution trace and reasonably fine monitoring of a
// consumable resource, it fits per-phase-type demand coefficients by
// least squares —
//
//	consumption[k] ≈ Σ_type coef[type] · activity[type][k]
//
// over all timeslices k, where activity is the summed active fraction of the
// type's leaf instances. A coefficient is the resource amount one active
// instance of the type tends to consume, which is precisely the parameter of
// an Exact attribution rule; near-zero coefficients correspond to None
// rules. The fit is solved per machine and averaged, with coefficients
// clamped to be non-negative.
package infer

import (
	"fmt"
	"math"
	"sort"

	"grade10/internal/core"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// Coefficient is one inferred demand coefficient.
type Coefficient struct {
	// TypePath is the leaf phase type.
	TypePath string
	// Amount is the fitted per-instance demand in resource units.
	Amount float64
}

// Result is the inference output for one resource.
type Result struct {
	Resource     string
	Coefficients []Coefficient
}

// Options tunes the inference.
type Options struct {
	// Timeslice is the fitting granularity; it should match (or be a small
	// multiple of) the monitoring interval. Default 50ms.
	Timeslice vtime.Duration
}

// NoneThreshold is the coefficient below which a type is reported as not
// using the resource (a None rule), as a fraction of the largest fitted
// coefficient.
const NoneThreshold = 0.05

// InferRules fits demand coefficients for one consumable resource from a
// trace and its per-machine monitoring samples (keyed by machine index; use
// core.GlobalMachine for a global resource).
func InferRules(tr *core.ExecutionTrace, resource string,
	monitoring map[int]*metrics.SampleSeries, opts Options) (*Result, error) {
	if opts.Timeslice <= 0 {
		opts.Timeslice = 50 * vtime.Millisecond
	}
	if len(monitoring) == 0 {
		return nil, fmt.Errorf("infer: no monitoring data")
	}

	// Collect leaf types in a stable order.
	typeIndex := map[string]int{}
	var types []string
	leaves := tr.Leaves()
	for _, leaf := range leaves {
		tp := leaf.Type.Path()
		if _, ok := typeIndex[tp]; !ok {
			typeIndex[tp] = len(types)
			types = append(types, tp)
		}
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("infer: trace has no leaf phases")
	}
	n := len(types)
	slices := core.NewTimeslices(tr.Start, tr.End, opts.Timeslice)
	if slices.Count == 0 {
		return nil, fmt.Errorf("infer: empty trace span")
	}

	// Accumulate the normal equations AᵀA x = Aᵀb over all machines.
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	atb := make([]float64, n)

	// Machines are summed in sorted order: float addition is not
	// associative, so map order would make the fit vary between calls.
	machines := make([]int, 0, len(monitoring))
	for machine := range monitoring {
		machines = append(machines, machine)
	}
	sort.Ints(machines)
	row := make([]float64, n)
	for _, machine := range machines {
		truth := monitoring[machine].ToSeries()
		for k := 0; k < slices.Count; k++ {
			t0, t1 := slices.Bounds(k)
			for i := range row {
				row[i] = 0
			}
			any := false
			for _, leaf := range leaves {
				if machine != core.GlobalMachine && leaf.Machine != machine {
					continue
				}
				a := leaf.ActiveFraction(t0, t1)
				if a > 0 {
					row[typeIndex[leaf.Type.Path()]] += a
					any = true
				}
			}
			if !any {
				continue
			}
			b := truth.Average(t0, t1)
			for i := 0; i < n; i++ {
				if row[i] == 0 {
					continue
				}
				atb[i] += row[i] * b
				for j := 0; j < n; j++ {
					ata[i][j] += row[i] * row[j]
				}
			}
		}
	}

	coef, err := solveRidge(ata, atb, 1e-6)
	if err != nil {
		return nil, err
	}
	for i := range coef {
		if coef[i] < 0 {
			coef[i] = 0
		}
	}

	res := &Result{Resource: resource}
	for i, tp := range types {
		res.Coefficients = append(res.Coefficients, Coefficient{TypePath: tp, Amount: coef[i]})
	}
	sort.Slice(res.Coefficients, func(i, j int) bool {
		return res.Coefficients[i].TypePath < res.Coefficients[j].TypePath
	})
	return res, nil
}

// RuleSet converts the fit into attribution rules: coefficients below
// NoneThreshold of the maximum become None, the rest Exact(amount).
func (r *Result) RuleSet() *core.RuleSet {
	maxC := 0.0
	for _, c := range r.Coefficients {
		if c.Amount > maxC {
			maxC = c.Amount
		}
	}
	rules := core.NewRuleSet()
	for _, c := range r.Coefficients {
		if maxC > 0 && c.Amount < NoneThreshold*maxC {
			rules.Set(c.TypePath, r.Resource, core.None())
		} else {
			rules.Set(c.TypePath, r.Resource, core.Exact(c.Amount))
		}
	}
	return rules
}

// solveRidge solves (AᵀA + λI) x = b by Gaussian elimination with partial
// pivoting; the ridge term keeps rank-deficient systems (types that never
// appear alone) solvable.
func solveRidge(ata [][]float64, atb []float64, lambda float64) ([]float64, error) {
	n := len(atb)
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n+1)
		copy(m[i], ata[i])
		m[i][i] += lambda
		m[i][n] = atb[i]
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		m[col], m[pivot] = m[pivot], m[col]
		if math.Abs(m[col][col]) < 1e-12 {
			return nil, fmt.Errorf("infer: singular system at column %d", col)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}
