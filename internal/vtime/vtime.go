// Package vtime provides virtual time for the discrete-event simulation
// substrate and for Grade10's trace analysis.
//
// All simulated components and all analysis code express instants as
// vtime.Time and intervals as vtime.Duration, both counted in virtual
// nanoseconds since the start of a simulation. Virtual time is unrelated to
// wall-clock time: a simulated run over hundreds of virtual seconds may
// execute in milliseconds of real time.
package vtime

import (
	"fmt"
	"strconv"
)

// Time is an instant in virtual nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Infinity is a sentinel instant later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as a floating-point number of virtual seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromSeconds converts a floating-point number of seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// String formats the instant as seconds with millisecond precision,
// e.g. "12.345s": fmt's "%.3fs" of t.Seconds(), computed in integers
// wherever that gives the same digits.
func (t Time) String() string {
	v, ok := thousandths(int64(t), int64(Second))
	if !ok {
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
	var buf [24]byte
	return string(append(appendThousandths(buf[:0], v), 's'))
}

// String formats the duration using the most natural unit, e.g. "250ms":
// the value in that unit with three decimals, trailing zeros dropped.
func (d Duration) String() string {
	if d == 0 {
		return "0s"
	}
	var buf [32]byte
	b := buf[:0]
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	switch {
	case d < Microsecond: // also math.MinInt64, which negation leaves negative
		b = append(strconv.AppendInt(b, int64(d), 10), "ns"...)
	case d < Millisecond:
		b = append(appendTrimmed(b, d, Microsecond), "µs"...)
	case d < Second:
		b = append(appendTrimmed(b, d, Millisecond), "ms"...)
	default:
		b = append(appendTrimmed(b, d, Second), 's')
	}
	return string(b)
}

// appendTrimmed appends d in units of unit with three decimals, then drops
// trailing zeros and a trailing point.
func appendTrimmed(b []byte, d, unit Duration) []byte {
	n := len(b)
	if v, ok := thousandths(int64(d), int64(unit)); ok {
		b = appendThousandths(b, v)
	} else {
		b = strconv.AppendFloat(b, float64(d)/float64(unit), 'f', 3, 64)
	}
	for len(b) > n && b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	for len(b) > n && b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	return b
}

// thousandths returns n/unit rounded to three decimals, counted in
// thousandths, exactly as strconv rounds float64(n)/float64(unit); unit is a
// power of ten of at least 1000. It reports false where it cannot tell: n
// outside [0, 2^52), and n on a rounding tie, where the quotient's own
// rounding error decides. Off a tie, n/unit lies at least 1/(2*unit) from
// one; below 2^52, float64(n) is exact and the quotient is below 2^52/unit,
// so its rounding error, half an ulp, is less than that.
func thousandths(n, unit int64) (int64, bool) {
	if n < 0 || n >= 1<<52 {
		return 0, false
	}
	step := unit / 1000
	v, r := n/step, n%step
	switch {
	case 2*r > step:
		v++
	case 2*r == step:
		return 0, false
	}
	return v, true
}

// appendThousandths appends v thousandths as a decimal with three fraction
// digits.
func appendThousandths(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v/1000, 10)
	f := v % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
