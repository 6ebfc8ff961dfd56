package enginelog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"grade10/internal/vtime"
)

// Text format, one event per line (timestamps in virtual nanoseconds):
//
//	S <ts> <machine> <path>      phase start
//	E <ts> <path>                phase end
//	B <t0> <t1> <resource> <path> blocking interval
//	C <ts> <name> <value>        counter
//
// Paths and resource names must not contain whitespace; engines use
// slash/dot-structured identifiers, so this holds by construction.

// Write serializes the log.
func Write(w io.Writer, log *Log) error {
	bw := bufio.NewWriter(w)
	for _, e := range log.Events {
		var err error
		switch e.Kind {
		case PhaseStart:
			_, err = fmt.Fprintf(bw, "S %d %d %s\n", int64(e.Time), e.Machine, e.Path)
		case PhaseEnd:
			_, err = fmt.Fprintf(bw, "E %d %s\n", int64(e.Time), e.Path)
		case Blocked:
			_, err = fmt.Fprintf(bw, "B %d %d %s %s\n", int64(e.Time), int64(e.End), e.Resource, e.Path)
		case Counter:
			_, err = fmt.Fprintf(bw, "C %d %s %g\n", int64(e.Time), e.Name, e.Value)
		default:
			err = fmt.Errorf("enginelog: unknown event kind %d", e.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func parseEvent(fields []string) (Event, error) {
	if len(fields) == 0 {
		return Event{}, fmt.Errorf("empty event")
	}
	var argc int
	switch fields[0] {
	case "S", "C":
		argc = 4
	case "E":
		argc = 3
	case "B":
		argc = 5
	default:
		return Event{}, fmt.Errorf("unknown event tag %q", fields[0])
	}
	if len(fields) != argc {
		return Event{}, fmt.Errorf("tag %q expects %d fields, got %d", fields[0], argc, len(fields))
	}
	ts, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad timestamp: %v", err)
	}
	switch fields[0] {
	case "S":
		machine, err := strconv.Atoi(fields[2])
		if err != nil {
			return Event{}, fmt.Errorf("bad machine: %v", err)
		}
		return Event{Kind: PhaseStart, Time: vtime.Time(ts), Machine: machine, Path: fields[3]}, nil
	case "E":
		return Event{Kind: PhaseEnd, Time: vtime.Time(ts), Path: fields[2]}, nil
	case "B":
		end, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad end timestamp: %v", err)
		}
		if end < ts {
			return Event{}, fmt.Errorf("blocking interval ends before it starts")
		}
		return Event{Kind: Blocked, Time: vtime.Time(ts), End: vtime.Time(end),
			Resource: fields[3], Path: fields[4]}, nil
	default: // "C"
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || math.IsNaN(v) {
			return Event{}, fmt.Errorf("bad counter value %q", fields[3])
		}
		return Event{Kind: Counter, Time: vtime.Time(ts), Name: fields[2], Value: v}, nil
	}
}
