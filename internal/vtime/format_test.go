package vtime

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"grade10/internal/race"
)

// floatTimeString and floatDurationString are the float formulas String
// computes in integers where it can; its output must match them byte for
// byte everywhere.
func floatTimeString(t Time) string { return fmt.Sprintf("%.3fs", t.Seconds()) }

func floatDurationString(d Duration) string {
	neg := d < 0
	if neg {
		d = -d
	}
	var s string
	switch {
	case d == 0:
		return "0s"
	case d < Microsecond:
		s = strconv.FormatInt(int64(d), 10) + "ns"
	case d < Millisecond:
		s = floatTrimZeros(float64(d)/float64(Microsecond)) + "µs"
	case d < Second:
		s = floatTrimZeros(float64(d)/float64(Millisecond)) + "ms"
	default:
		s = floatTrimZeros(float64(d)/float64(Second)) + "s"
	}
	if neg {
		return "-" + s
	}
	return s
}

func floatTrimZeros(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// checkFormat compares both String methods at n nanoseconds with the float
// formulas.
func checkFormat(t *testing.T, n int64) {
	t.Helper()
	if got, want := Time(n).String(), floatTimeString(Time(n)); got != want {
		t.Errorf("Time(%d).String() = %q, float formula %q", n, got, want)
	}
	if got, want := Duration(n).String(), floatDurationString(Duration(n)); got != want {
		t.Errorf("Duration(%d).String() = %q, float formula %q", n, got, want)
	}
}

// formatCases returns the edge values: zero, the unit boundaries, the
// bounds of the integer path (2^52) and of exact float64 (2^53), and the
// int64 extremes, each with its neighbours and negation.
func formatCases() []int64 {
	var out []int64
	for _, n := range []int64{0, 1, 999, 1000, 1500, 999_999, 1_000_000, 999_999_999,
		1_000_000_000, 1 << 52, 1 << 53, math.MaxInt64 - 1} {
		out = append(out, n-1, n, n+1, -(n - 1), -n, -(n + 1))
	}
	return append(out, math.MinInt64, math.MinInt64+1)
}

// tieCases returns values whose exact value in unit sits on a x.xxx5
// rounding tie, with their neighbours, at small and large magnitudes. A
// microsecond count has no half-thousandth, so there the tie is the exact
// thousandth.
func tieCases(rng *rand.Rand) []int64 {
	var out []int64
	for _, unit := range []int64{int64(Microsecond), int64(Millisecond), int64(Second)} {
		step := unit / 1000
		for _, top := range []int64{1000, unit, 1 << 52 / step, 1 << 53 / step, math.MaxInt64 / step} {
			for i := 0; i < 200; i++ {
				v := rng.Int63n(top - 1)
				if i < 20 {
					v = top - 2 - int64(i) // the top of the range
				}
				tie := v*step + step/2
				out = append(out, tie-1, tie, tie+1, -tie)
			}
		}
	}
	return out
}

// TestStringMatchesFloatFormula is the property behind the integer
// formatting: on edge values, rounding ties at every unit and random values
// of every magnitude, Time.String is fmt's "%.3fs" of Seconds and
// Duration.String the float formula it replaced.
func TestStringMatchesFloatFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := append(formatCases(), tieCases(rng)...)
	for i := 0; i < 100_000; i++ {
		n := rng.Int63() >> uint(rng.Intn(63)) // every magnitude
		if rng.Intn(4) == 0 {
			n = -n
		}
		cases = append(cases, n)
	}
	for _, n := range cases {
		checkFormat(t, n)
	}
}

// FuzzStringMatchesFloatFormula checks the same property on fuzzed values.
func FuzzStringMatchesFloatFormula(f *testing.F) {
	for _, n := range formatCases() {
		f.Add(n)
	}
	for _, n := range tieCases(rand.New(rand.NewSource(1)))[:40] {
		f.Add(n)
	}
	f.Fuzz(checkFormat)
}

// TestStringAllocatesOnlyResult checks that a time cell costs one
// allocation, its string, off the float fallback.
func TestStringAllocatesOnlyResult(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	var sink string
	for _, fn := range []func(){
		func() { sink = Time(12_345_678_901).String() },
		func() { sink = Duration(1_500).String() },
		func() { sink = Duration(-250 * Millisecond).String() },
		func() { sink = Duration(1_234_567_890).String() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 1 {
			t.Errorf("%d allocations for %q, want 1", int(n), sink)
		}
	}
}
