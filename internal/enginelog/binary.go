package enginelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"grade10/internal/vtime"
)

// Binary format. A binary enginelog is the 5-byte header "G10B" + version,
// followed by self-delimiting records:
//
//	start:   0x01 svarint(Δtime) svarint(machine) stringRef(path)
//	end:     0x02 svarint(Δtime) stringRef(path)
//	blocked: 0x03 svarint(Δtime) uvarint(end-start) stringRef(resource) stringRef(path)
//	counter: 0x04 svarint(Δtime) stringRef(name) fixed64le(float bits)
//
// Δtime is the zigzag-varint delta from the previous record's Time field
// (from zero for the first record); blocking intervals store their
// non-negative duration as a plain uvarint. A stringRef is uvarint(n): n > 0
// references entry n-1 of the intern table, n == 0 defines a new entry
// inline as uvarint(len) + bytes and appends it to the table. Counter values
// are raw IEEE-754 bits, so every value the text format prints with %g
// round-trips exactly.
//
// Decoding is lenient in the same spirit as the text parser: a structurally
// valid record with a semantically invalid payload (a NaN counter) is
// counted and skipped, and a truncated final record is counted as
// skipped+truncated. Unlike text, the stream is not self-synchronizing, so
// the first corrupt byte poisons the rest of the input: everything after it
// is dropped under a single skipped-record count.

// Magic identifies a binary enginelog; the following byte is the version.
const (
	Magic         = "G10B"
	BinaryVersion = 1
)

const headerLen = len(Magic) + 1

// Format discriminates the two on-disk enginelog encodings.
type Format int

const (
	// FormatText is the line-oriented format written by Write.
	FormatText Format = iota
	// FormatBinary is the varint/interned format written by WriteBinary.
	FormatBinary
)

func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// DetectFormat reports the format of a log whose first bytes are prefix.
// Anything that does not begin with the binary magic is text: valid text
// lines start with an event tag, '#', or whitespace, never "G10B".
func DetectFormat(prefix []byte) Format {
	if len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic {
		return FormatBinary
	}
	return FormatText
}

// record tags.
const (
	tagStart   = 0x01
	tagEnd     = 0x02
	tagBlocked = 0x03
	tagCounter = 0x04
)

// Encoder incrementally serializes events to the binary format. The header
// is written before the first record; Flush must be called (or WriteBinary
// used) to drain the internal buffer.
type Encoder struct {
	w       *bufio.Writer
	ids     map[string]uint64
	last    int64
	started bool
	buf     []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 64<<10), ids: make(map[string]uint64)}
}

func (e *Encoder) str(s string) {
	if id, ok := e.ids[s]; ok {
		e.buf = binary.AppendUvarint(e.buf, id)
		return
	}
	e.ids[s] = uint64(len(e.ids) + 1)
	e.buf = binary.AppendUvarint(e.buf, 0)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Encode appends one event. Events the text format cannot represent either
// (unknown kinds, inverted blocking intervals, NaN counters) are rejected.
func (e *Encoder) Encode(ev Event) error {
	if !e.started {
		e.started = true
		if _, err := e.w.WriteString(Magic); err != nil {
			return err
		}
		if err := e.w.WriteByte(BinaryVersion); err != nil {
			return err
		}
	}
	e.buf = e.buf[:0]
	dt := int64(ev.Time) - e.last
	switch ev.Kind {
	case PhaseStart:
		e.buf = append(e.buf, tagStart)
		e.buf = binary.AppendVarint(e.buf, dt)
		e.buf = binary.AppendVarint(e.buf, int64(ev.Machine))
		e.str(ev.Path)
	case PhaseEnd:
		e.buf = append(e.buf, tagEnd)
		e.buf = binary.AppendVarint(e.buf, dt)
		e.str(ev.Path)
	case Blocked:
		if ev.End < ev.Time {
			return fmt.Errorf("enginelog: blocking interval ends before it starts")
		}
		e.buf = append(e.buf, tagBlocked)
		e.buf = binary.AppendVarint(e.buf, dt)
		e.buf = binary.AppendUvarint(e.buf, uint64(int64(ev.End)-int64(ev.Time)))
		e.str(ev.Resource)
		e.str(ev.Path)
	case Counter:
		if math.IsNaN(ev.Value) {
			return fmt.Errorf("enginelog: NaN counter value")
		}
		e.buf = append(e.buf, tagCounter)
		e.buf = binary.AppendVarint(e.buf, dt)
		e.str(ev.Name)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(ev.Value))
	default:
		return fmt.Errorf("enginelog: unknown event kind %d", ev.Kind)
	}
	e.last = int64(ev.Time)
	_, err := e.w.Write(e.buf)
	return err
}

// Flush drains buffered output, writing the header even for an empty log so
// the output is always detectable as binary.
func (e *Encoder) Flush() error {
	if !e.started {
		e.started = true
		if _, err := e.w.WriteString(Magic); err != nil {
			return err
		}
		if err := e.w.WriteByte(BinaryVersion); err != nil {
			return err
		}
	}
	return e.w.Flush()
}

// WriteBinary serializes the log in the binary format.
func WriteBinary(w io.Writer, log *Log) error {
	enc := NewEncoder(w)
	for _, ev := range log.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// errShortRecord marks an incomplete record: not corruption, just "feed me
// more bytes" (the tail-following case).
var errShortRecord = errors.New("short record")

// Decoder incrementally decodes a binary enginelog. Feed it byte chunks as
// they arrive — records split across chunk boundaries are buffered — then
// call Finish once the stream ends. Stats mirror the text parser's: every
// complete record counts as a line, decoded events count as events, and
// skipped records (NaN counters, corruption, a truncated tail) keep the
// Events+Skipped == Lines invariant.
type Decoder struct {
	buf        []byte
	table      []string
	defs       []string // strings defined by the record being decoded
	last       int64
	headerDone bool
	dead       bool
	stats      ParseStats
}

func (d *Decoder) fail(msg string) {
	d.dead = true
	d.buf = nil
	d.stats.Lines++
	d.stats.Skipped++
	if d.stats.FirstError == "" {
		d.stats.FirstError = msg
	}
}

// uvarintAt decodes a uvarint at off, distinguishing "need more bytes" from
// overflow corruption.
func uvarintAt(buf []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[off:])
	if n == 0 {
		return 0, 0, errShortRecord
	}
	if n < 0 {
		return 0, 0, errors.New("uvarint overflows 64 bits")
	}
	return v, off + n, nil
}

func varintAt(buf []byte, off int) (int64, int, error) {
	u, off, err := uvarintAt(buf, off)
	if err != nil {
		return 0, 0, err
	}
	return int64(u>>1) ^ -int64(u&1), off, nil
}

// stringAt resolves a stringRef at off. New definitions are staged in d.defs
// and only committed to the intern table once the whole record decodes, so a
// record cut short mid-chunk is not re-interned when retried.
func (d *Decoder) stringAt(buf []byte, off int) (string, int, error) {
	ref, off, err := uvarintAt(buf, off)
	if err != nil {
		return "", 0, err
	}
	if ref == 0 {
		ln, off, err := uvarintAt(buf, off)
		if err != nil {
			return "", 0, err
		}
		if ln > MaxLineLen {
			return "", 0, fmt.Errorf("interned string length %d exceeds limit", ln)
		}
		if off+int(ln) > len(buf) {
			return "", 0, errShortRecord
		}
		s := string(buf[off : off+int(ln)])
		d.defs = append(d.defs, s)
		return s, off + int(ln), nil
	}
	idx := int(ref - 1)
	if idx < len(d.table) {
		return d.table[idx], off, nil
	}
	if j := idx - len(d.table); j < len(d.defs) {
		return d.defs[j], off, nil
	}
	return "", 0, fmt.Errorf("string reference %d beyond intern table (%d entries)", ref, len(d.table)+len(d.defs))
}

// decodeRecord attempts to decode one record from d.buf. It returns the
// consumed length and either the event, errShortRecord (keep the bytes,
// wait for more), a semantic skip (errSkipRecord wraps the reason), or a
// corruption error.
type errSkipRecord struct{ msg string }

func (e errSkipRecord) Error() string { return e.msg }

func (d *Decoder) decodeRecord() (Event, int, error) {
	buf := d.buf
	d.defs = d.defs[:0]
	tag := buf[0]
	dt, off, err := varintAt(buf, 1)
	if err != nil {
		return Event{}, 0, err
	}
	ts := d.last + dt
	ev := Event{Time: vtime.Time(ts)}
	switch tag {
	case tagStart:
		m, o, err := varintAt(buf, off)
		if err != nil {
			return Event{}, 0, err
		}
		ev.Path, off, err = d.stringAt(buf, o)
		if err != nil {
			return Event{}, 0, err
		}
		ev.Kind, ev.Machine = PhaseStart, int(m)
	case tagEnd:
		ev.Path, off, err = d.stringAt(buf, off)
		if err != nil {
			return Event{}, 0, err
		}
		ev.Kind = PhaseEnd
	case tagBlocked:
		dur, o, err := uvarintAt(buf, off)
		if err != nil {
			return Event{}, 0, err
		}
		if dur > math.MaxInt64 {
			return Event{}, 0, fmt.Errorf("blocking duration %d overflows", dur)
		}
		ev.Resource, o, err = d.stringAt(buf, o)
		if err != nil {
			return Event{}, 0, err
		}
		ev.Path, off, err = d.stringAt(buf, o)
		if err != nil {
			return Event{}, 0, err
		}
		ev.Kind, ev.End = Blocked, vtime.Time(ts+int64(dur))
	case tagCounter:
		name, o, err := d.stringAt(buf, off)
		if err != nil {
			return Event{}, 0, err
		}
		if o+8 > len(buf) {
			return Event{}, 0, errShortRecord
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[o:]))
		off = o + 8
		if math.IsNaN(v) {
			// Structurally fine, semantically rejected — mirror the text
			// parser, which skips NaN counters. The record is consumed:
			// commit its time base and string definitions.
			d.commit(ts)
			return Event{}, off, errSkipRecord{"bad counter value NaN"}
		}
		ev.Kind, ev.Name, ev.Value = Counter, name, v
	default:
		return Event{}, 0, fmt.Errorf("unknown record tag 0x%02x", tag)
	}
	d.commit(ts)
	return ev, off, nil
}

func (d *Decoder) commit(ts int64) {
	d.last = ts
	d.table = append(d.table, d.defs...)
	d.defs = d.defs[:0]
}

// Feed consumes a chunk, invoking emit for every event completed by it.
// Partial trailing records are copied and buffered for the next Feed; the
// rest of the chunk is decoded in place and not kept.
func (d *Decoder) Feed(p []byte, emit func(Event)) {
	if d.dead {
		return
	}
	if len(d.buf) == 0 {
		d.buf = p
	} else {
		d.buf = append(d.buf, p...)
	}
	if !d.headerDone {
		if len(d.buf) < headerLen {
			d.buf = append([]byte(nil), d.buf...)
			return
		}
		if string(d.buf[:len(Magic)]) != Magic {
			d.fail("missing binary enginelog magic")
			return
		}
		if v := d.buf[len(Magic)]; v != BinaryVersion {
			d.fail(fmt.Sprintf("unsupported binary enginelog version %d (decoder speaks %d)", v, BinaryVersion))
			return
		}
		d.buf = d.buf[headerLen:]
		d.headerDone = true
	}
	for len(d.buf) > 0 {
		ev, n, err := d.decodeRecord()
		switch {
		case err == nil:
			d.stats.Lines++
			d.stats.Events++
			if emit != nil {
				emit(ev)
			}
		case errors.Is(err, errShortRecord):
			// Copy the retained tail: the chunk is the caller's, and a
			// long-lived tailing decoder must not pin every chunk it saw.
			d.buf = append(d.buf[:0:0], d.buf...)
			return
		default:
			if skip, ok := err.(errSkipRecord); ok {
				d.stats.Lines++
				d.stats.Skipped++
				if d.stats.FirstError == "" {
					d.stats.FirstError = skip.msg
				}
				break // record consumed; keep decoding
			}
			d.fail(err.Error())
			return
		}
		d.buf = d.buf[n:]
	}
	d.buf = nil
}

// Finish finalizes the stream. A non-empty partial record (or partial
// header) at end of input is counted as one skipped, truncated line.
func (d *Decoder) Finish() {
	if d.dead || len(d.buf) == 0 {
		return
	}
	d.stats.Lines++
	d.stats.Skipped++
	d.stats.Truncated++
	if d.stats.FirstError == "" {
		if d.headerDone {
			d.stats.FirstError = "truncated record at end of input"
		} else {
			d.stats.FirstError = "truncated binary header"
		}
	}
	d.buf = nil
}

// Stats returns the accumulated parse statistics.
func (d *Decoder) Stats() ParseStats { return d.stats }
