package enginelog

import (
	"bytes"
	"io"
	"strings"
	"unicode/utf8"

	"grade10/internal/vtime"
)

// StreamParser is the one execution-log decoder. It accepts either enginelog
// format, deciding by magic bytes from the first len(Magic) bytes it sees, and
// consumes raw chunks of any size and alignment: a whole file (ReadStats), a
// file tail, or a network stream. Text is split into lines by a LineSplitter;
// binary records go through a Decoder.
//
// Finish flushes any buffered partial line or record once the stream ends.
// Stats reports one unified ParseStats whichever format was detected.
type StreamParser struct {
	format  Format
	decided bool
	hdr     []byte // undecided prefix, < len(Magic) bytes

	// Text mode.
	lines LineSplitter
	text  ParseStats

	// Binary mode.
	dec Decoder

	finished bool
}

// Format returns the detected format; meaningful once at least len(Magic)
// bytes were fed or the stream finished (text until then).
func (sp *StreamParser) Format() Format { return sp.format }

// Feed consumes a raw chunk in whichever format the stream is, invoking
// emit for every completed event.
func (sp *StreamParser) Feed(chunk []byte, emit func(Event)) {
	if !sp.decided {
		if len(sp.hdr) == 0 && len(chunk) >= len(Magic) {
			// The common case: decide on the chunk in place, copying nothing.
			sp.decide(DetectFormat(chunk))
		} else {
			n := min(len(Magic)-len(sp.hdr), len(chunk))
			sp.hdr = append(sp.hdr, chunk[:n]...)
			chunk = chunk[n:]
			if len(sp.hdr) < len(Magic) {
				return
			}
			sp.decide(DetectFormat(sp.hdr))
			sp.feed(sp.hdr, emit)
			sp.hdr = nil
		}
	}
	sp.feed(chunk, emit)
}

func (sp *StreamParser) decide(f Format) {
	sp.format = f
	sp.decided = true
}

func (sp *StreamParser) feed(chunk []byte, emit func(Event)) {
	if sp.format == FormatBinary {
		sp.dec.Feed(chunk, emit)
		return
	}
	sp.lines.Feed(chunk, func(line []byte) { sp.parseLine(line, emit) })
}

// parseLine parses one text line. Blank lines and '#' comments are ignored;
// a malformed line is counted and skipped. A start, end or blocking line
// written exactly as Write writes it takes parseFast; every other line (a
// counter line or a malformed one) is split by strings.Fields and parsed by
// parseEvent.
func (sp *StreamParser) parseLine(line []byte, emit func(Event)) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return
	}
	sp.text.Lines++
	text := string(line)
	e, ok := parseFast(text)
	if !ok {
		var err error
		if e, err = parseEvent(strings.Fields(text)); err != nil {
			sp.text.Skipped++
			if sp.text.FirstError == "" {
				sp.text.FirstError = err.Error()
			}
			return
		}
	}
	sp.text.Events++
	if emit != nil {
		emit(e)
	}
}

// parseFast parses an S, E or B line in Write's exact shape: fields
// separated by single spaces, integers of an optional '-' and at most 18
// digits, and names of printable ASCII. It reports false for any other line,
// including a blocking interval that ends before it starts, and then
// parseEvent decides; for a line it takes, parseEvent would return the same
// event.
func parseFast(s string) (Event, bool) {
	if len(s) < 2 || s[1] != ' ' {
		return Event{}, false
	}
	ts, rest, ok := fastInt(s[2:])
	if !ok {
		return Event{}, false
	}
	e := Event{Time: vtime.Time(ts)}
	switch s[0] {
	case 'S':
		var machine int64
		if machine, rest, ok = fastInt(rest); !ok {
			return Event{}, false
		}
		e.Kind, e.Machine = PhaseStart, int(machine)
	case 'E':
		e.Kind = PhaseEnd
	case 'B':
		var end int64
		if end, rest, ok = fastInt(rest); !ok || end < ts {
			return Event{}, false
		}
		e.Kind, e.End = Blocked, vtime.Time(end)
		if e.Resource, rest, ok = fastName(rest); !ok || rest == "" {
			return Event{}, false
		}
		rest = rest[1:]
	default:
		return Event{}, false
	}
	if e.Path, rest, ok = fastName(rest); !ok || rest != "" {
		return Event{}, false
	}
	return e, true
}

// fastInt takes a field of an optional '-' and 1 to 18 digits, which cannot
// overflow int64, followed by one space, off the front of s.
func fastInt(s string) (n int64, rest string, ok bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i = 1
	}
	digits := i
	for ; i < len(s) && i-digits < 18 && '0' <= s[i] && s[i] <= '9'; i++ {
		n = n*10 + int64(s[i]-'0')
	}
	if i == digits || i == len(s) || s[i] != ' ' {
		return 0, "", false
	}
	if digits == 1 {
		n = -n
	}
	return n, s[i+1:], true
}

// fastName splits a nonempty field of printable ASCII off the front of s,
// at its first space or its end. Any other byte, which may be whitespace to
// strings.Fields, fails it.
func fastName(s string) (name, rest string, ok bool) {
	i := 0
	// Skip eight bytes at a time while each is above ' ' and below 0x80:
	// subtracting 0x21 from every byte sets the top bit of the lowest one
	// below 0x21, and a byte of 0x80 or more has it set already.
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if (w-0x2121212121212121|w)&0x8080808080808080 != 0 {
			break
		}
	}
	for ; i < len(s) && s[i] != ' '; i++ {
		if s[i] <= ' ' || s[i] >= utf8.RuneSelf {
			return "", "", false
		}
	}
	return s[:i], s[i:], i > 0
}

// FeedReader streams all of r through Feed in bounded memory.
func (sp *StreamParser) FeedReader(r io.Reader, emit func(Event)) error {
	return ReadChunks(r, func(chunk []byte) { sp.Feed(chunk, emit) })
}

// Finish flushes buffered partial input at end of stream: a final
// unterminated text line is parsed, a partial binary record is counted as
// truncated. Finish is idempotent; further Feeds after Finish are undefined.
func (sp *StreamParser) Finish(emit func(Event)) {
	if sp.finished {
		return
	}
	sp.finished = true
	if !sp.decided {
		// Fewer than len(Magic) bytes ever arrived; that is text.
		sp.decide(FormatText)
		sp.feed(sp.hdr, emit)
		sp.hdr = nil
	}
	if sp.format == FormatBinary {
		sp.dec.Finish()
		return
	}
	sp.lines.Finish(func(line []byte) { sp.parseLine(line, emit) })
}

// Buffered reports whether the parser holds a partial line, binary record or
// format header that more bytes (or Finish) would complete.
func (sp *StreamParser) Buffered() bool {
	switch {
	case !sp.decided:
		return len(sp.hdr) > 0
	case sp.format == FormatBinary:
		return len(sp.dec.buf) > 0
	default:
		return len(sp.lines.pending) > 0 || sp.lines.discarding
	}
}

// Stats returns unified parse statistics for whichever format was seen.
func (sp *StreamParser) Stats() ParseStats {
	if sp.format == FormatBinary {
		return sp.dec.Stats()
	}
	st := sp.text
	st.Truncated = sp.lines.Truncated()
	return st
}
