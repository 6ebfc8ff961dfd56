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
	"strings"
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
// e.g. "12.345s".
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// String formats the duration using the most natural unit, e.g. "250ms".
func (d Duration) String() string {
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
		s = trimZeros(float64(d)/float64(Microsecond)) + "µs"
	case d < Second:
		s = trimZeros(float64(d)/float64(Millisecond)) + "ms"
	default:
		s = trimZeros(float64(d)/float64(Second)) + "s"
	}
	if neg {
		return "-" + s
	}
	return s
}

func trimZeros(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
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
