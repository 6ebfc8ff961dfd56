package enginelog

import (
	"bytes"
	"io"
	"sync"
)

// ParseStats counts the outcome of decoding an event stream. StreamParser
// fills one for either format, so malformed input degrades gracefully on
// every path: bad lines or records are counted and skipped, never fatal.
type ParseStats struct {
	// Lines is the number of non-blank, non-comment lines seen.
	Lines int
	// Events is the number of successfully parsed events.
	Events int
	// Skipped is the number of malformed lines that were counted and
	// dropped.
	Skipped int
	// Truncated is the number of over-long lines dropped by the line
	// splitter before parsing (a garbled log can splice lines together).
	Truncated int
	// FirstError describes the first malformed line, for diagnostics.
	FirstError string
}

// Degraded reports whether any input was dropped.
func (s ParseStats) Degraded() bool { return s.Skipped > 0 || s.Truncated > 0 }

// ReadStats decodes a whole execution log in either format, detected by
// magic bytes. Decoding is lenient: malformed lines or records are skipped
// and counted in the returned ParseStats, so a truncated or garbled log still
// yields every event that survived. Only I/O errors are returned.
//
// Events are decoded into pooled fixed-size blocks and copied once into a
// Log.Events of exactly their number, so the slice never grows by doubling.
func ReadStats(r io.Reader) (*Log, ParseStats, Format, error) {
	var blocks []*eventBlock
	n := 0
	defer func() {
		// Clear before returning: a pooled block must not pin this log's
		// strings.
		for i, b := range blocks {
			clear(b[:min(n-i*eventBlockLen, eventBlockLen)])
			eventBlocks.Put(b)
		}
	}()
	emit := func(e Event) {
		i := n % eventBlockLen
		if i == 0 {
			blocks = append(blocks, eventBlocks.Get().(*eventBlock))
		}
		blocks[len(blocks)-1][i] = e
		n++
	}
	var sp StreamParser
	if err := sp.FeedReader(r, emit); err != nil {
		return nil, sp.Stats(), sp.Format(), err
	}
	sp.Finish(emit)
	log := &Log{Events: make([]Event, n)}
	for i, b := range blocks {
		copy(log.Events[i*eventBlockLen:], b[:])
	}
	return log, sp.Stats(), sp.Format(), nil
}

// eventBlockLen is the number of events in one pooled decode block.
const eventBlockLen = 512

type eventBlock [eventBlockLen]Event

// eventBlocks holds ReadStats' decode blocks between calls, always cleared.
var eventBlocks = sync.Pool{New: func() any { return new(eventBlock) }}

// MaxLineLen bounds one line of a run-directory text file: a text execution
// log or monitoring.csv. Paths and numbers are short, so a longer line is
// garbage by construction.
const MaxLineLen = 1 << 20

// LineSplitter assembles lines from byte chunks of any size and alignment.
// It is the one line reader behind every text input: StreamParser's text
// mode (batch ReadStats and live ingest alike), rundir.ReadMonitoring and the
// followed monitoring tail.
//
// The limit rule: a line counts its '\n' terminator toward MaxLineLen. A
// line of at most MaxLineLen bytes, terminator included, is passed on; a
// longer one is dropped whole, counted in Truncated, and its bytes are
// released as soon as it crosses the limit, so the splitter never holds more
// than MaxLineLen bytes.
//
// Lines are passed on with their '\n' when they have one, so a consumer can
// account for every byte it is handed. The slice is only valid during the
// call.
type LineSplitter struct {
	pending    []byte // the current line's bytes from earlier chunks
	discarding bool   // inside an over-long line, skipping to its '\n'
	truncated  int
}

// Feed splits chunk, calling fn for every line it completes. A trailing
// partial line is held for the next Feed or for Finish.
func (s *LineSplitter) Feed(chunk []byte, fn func(line []byte)) {
	for len(chunk) > 0 {
		part, complete := chunk, false
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			part, complete = chunk[:i+1], true
		}
		chunk = chunk[len(part):]
		switch {
		case s.discarding:
		case len(s.pending)+len(part) > MaxLineLen:
			s.pending = nil
			s.truncated++
			s.discarding = true
		case !complete:
			s.hold(part)
		case len(s.pending) > 0:
			s.hold(part)
			fn(s.pending)
			s.pending = s.pending[:0]
		default:
			fn(part)
		}
		if complete {
			s.discarding = false
		}
	}
}

// hold appends part of the current line, growing the buffer to at most
// MaxLineLen so the bound holds on capacity, not just on length.
func (s *LineSplitter) hold(part []byte) {
	if need := len(s.pending) + len(part); need > cap(s.pending) {
		grown := make([]byte, len(s.pending), min(max(2*cap(s.pending), need), MaxLineLen))
		copy(grown, s.pending)
		s.pending = grown
	}
	s.pending = append(s.pending, part...)
}

// Finish passes on a final line that has no terminator, at end of input.
func (s *LineSplitter) Finish(fn func(line []byte)) {
	if !s.discarding && len(s.pending) > 0 {
		fn(s.pending)
	}
	s.pending, s.discarding = nil, false
}

// FeedReader feeds all of r through Feed in bounded memory; Finish passes on
// a final unterminated line.
func (s *LineSplitter) FeedReader(r io.Reader, fn func(line []byte)) error {
	return ReadChunks(r, func(chunk []byte) { s.Feed(chunk, fn) })
}

// Truncated returns the number of over-long lines dropped so far.
func (s *LineSplitter) Truncated() int { return s.truncated }

// Retained returns the bytes of line buffer currently held.
func (s *LineSplitter) Retained() int { return cap(s.pending) }

// readBufLen is the size of one pooled read buffer.
const readBufLen = 64 << 10

// readBufs holds the read buffers of every file reader: ReadChunks (batch
// decode, monitoring, and rundir's followed tails) takes one per call and
// returns it when the call does, so a chunk handed to a callback is reused
// by the next reader as soon as the callback returns.
var readBufs = sync.Pool{New: func() any { return new([readBufLen]byte) }}

// ReadChunks passes all of r to fn in chunks through one pooled 64 KiB
// buffer. A chunk is only valid during the call: fn must copy whatever it
// keeps.
func ReadChunks(r io.Reader, fn func([]byte)) error {
	buf := readBufs.Get().(*[readBufLen]byte)
	defer readBufs.Put(buf)
	for {
		n, err := r.Read(buf[:])
		if n > 0 {
			fn(buf[:n])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
