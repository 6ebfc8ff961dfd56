package rundir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grade10/internal/enginelog"
)

// FuzzReadMonitoring: arbitrary monitoring CSV never panics the parser, and
// whatever it accepts survives a WriteMonitoring round trip unchanged.
func FuzzReadMonitoring(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMonitoring(&buf, sampleRun().Monitoring); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("machine,resource,capacity,start_ns,end_ns,avg\n# c\n\n0,cpu,4,0,100,2\n"))
	f.Add([]byte("0,cpu,8,0,100,NaN\n1,net,+Inf,0,100,1\n"))
	f.Add([]byte("0,cpu,8,0,100,1\n0,cpu,8,200,300,1\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		out, err := ReadMonitoring(bytes.NewReader(in))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteMonitoring(&again, out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMonitoring(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-reading written monitoring: %v\n%s", err, again.String())
		}
		if !reflect.DeepEqual(back, out) {
			t.Fatalf("round trip changed the samples:\n got %+v\nwant %+v", back, out)
		}
	})
}

// FuzzSplitCommas: splitCommas counts the fields strings.Split(s, ",")
// returns and, when they fit, returns the same fields; ParseMonitoringLine
// words a wrong count with that same number.
func FuzzSplitCommas(f *testing.F) {
	for _, s := range []string{
		"", ",", ",,,,,", "0,cpu,8,0,100,1", "0,cpu,8,0,100", "0,cpu,8,0,100,1,", "0,cpu,8,0,100,1,x,y",
		"a,,b", ",leading", "trailing,", "no commas", ",,,,,,,,,,", "0,cpü,8,0,100,1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var dst [monitoringFields]string
		n := splitCommas(s, &dst)
		want := strings.Split(s, ",")
		if n != len(want) {
			t.Fatalf("splitCommas(%q) counts %d fields, strings.Split %d", s, n, len(want))
		}
		if n <= len(dst) && !reflect.DeepEqual(dst[:n], want) {
			t.Fatalf("splitCommas(%q) = %q, strings.Split %q", s, dst[:n], want)
		}
		line := strings.TrimSpace(s)
		if line == "" || strings.HasPrefix(line, "machine,") || strings.HasPrefix(line, "#") {
			return
		}
		_, _, err := ParseMonitoringLine(s)
		if got := len(strings.Split(line, ",")); got != monitoringFields {
			if want := fmt.Sprintf("expected 6 fields, got %d", got); err == nil || err.Error() != want {
				t.Fatalf("ParseMonitoringLine(%q) error %v, want %q", s, err, want)
			}
		}
	})
}

// FuzzInfo: arbitrary run.json bytes never panic the decoder Load and the
// follower share; every accepted schema version is between 1 and
// InfoVersion, and an accepted Info survives an encode/decode round trip.
func FuzzInfo(f *testing.F) {
	meta, err := json.MarshalIndent(sampleRun().Info, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta)
	f.Add([]byte(`{"engine":"giraph","job":"job"}`))
	f.Add([]byte(`{"version": 99, "engine":"giraph"}`))
	f.Add([]byte(`{"version": -1}`))
	f.Add([]byte(`{"version": "1"}`))
	f.Add([]byte(`{"placement": [], "cores": 1e308, "start_ns": -9223372036854775808}`))
	f.Add([]byte(`{"engine":"gir`))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, _, err := decodeInfo(data)
		if err != nil {
			return
		}
		if info.Version < 1 || info.Version > InfoVersion {
			t.Fatalf("accepted schema version %d, supported 1..%d", info.Version, InfoVersion)
		}
		enc, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := decodeInfo(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if len(info.Placement) == 0 {
			info.Placement = nil // omitempty drops an empty manifest
		}
		if !reflect.DeepEqual(back, info) {
			t.Fatalf("round trip changed the info:\n got %+v\nwant %+v", back, info)
		}
	})
}

// FuzzFollow appends a text or binary execution log and a monitoring CSV to a
// run directory piece by piece, in an order and at split points taken from
// the fuzzed bytes, and drains both tails after every append the way Follow's
// poll loop does, minus its clock. Whatever the splits, the follower must
// deliver exactly the bytes of the final log, which decode to the events and
// ParseStats of ReadStats on the whole file, and exactly the lines of the
// final monitoring file.
func FuzzFollow(f *testing.F) {
	run := sampleRun()
	var text, bin, mon bytes.Buffer
	if err := enginelog.Write(&text, run.Log); err != nil {
		f.Fatal(err)
	}
	if err := enginelog.WriteBinary(&bin, run.Log); err != nil {
		f.Fatal(err)
	}
	if err := WriteMonitoring(&mon, run.Monitoring); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes(), false, mon.Bytes(), []byte{3, 17, 1, 200, 0, 9})
	f.Add(bin.Bytes()[len(enginelog.Magic)+1:], true, mon.Bytes(), []byte{5, 0, 9, 2})
	f.Add(bin.Bytes()[len(enginelog.Magic)+1:bin.Len()-3], true, []byte("machine,resource\n0,cpu"), []byte{1})
	f.Add([]byte("S 0 0 /a\ngarbage\n\nE 1 /a"), false, []byte("0,cpu,4,0,1,NaN\n\n# c\r\n0,cpu"), []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, logData []byte, binary bool, monData, cuts []byte) {
		if binary {
			logData = append([]byte(enginelog.Magic+"\x01"), logData...)
		}
		dir := t.TempDir()
		var (
			sp       enginelog.StreamParser
			events   []enginelog.Event
			logBytes []byte
			lines    []string
		)
		emit := func(e enginelog.Event) { events = append(events, e) }
		fl := followerWithInfo(t, dir, FollowSink{
			LogChunk: func(c []byte) {
				logBytes = append(logBytes, c...)
				sp.Feed(c, emit)
			},
			MonitoringLine: func(l string) { lines = append(lines, l) },
		})
		files := []struct {
			path string
			rest []byte
		}{{filepath.Join(dir, logFile), logData}, {filepath.Join(dir, monitoringFile), monData}}
		put := func(i, n int) {
			n = min(n, len(files[i].rest))
			appendFile(t, files[i].path, files[i].rest[:n])
			files[i].rest = files[i].rest[n:]
			if _, err := fl.poll(); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range cuts {
			put(k%2, int(c))
		}
		put(0, len(logData))
		put(1, len(monData))
		fl.finish()
		sp.Finish(emit)

		if !bytes.Equal(logBytes, logData) {
			t.Fatalf("followed %d log bytes, want the %d of the file", len(logBytes), len(logData))
		}
		want, wantStats, wantFormat, err := enginelog.ReadStats(bytes.NewReader(logData))
		if err != nil {
			t.Fatal(err)
		}
		if sp.Stats() != wantStats || sp.Format() != wantFormat {
			t.Fatalf("followed %v stats %+v, batch %v stats %+v", sp.Format(), sp.Stats(), wantFormat, wantStats)
		}
		if !reflect.DeepEqual(events, want.Events) && len(events)+len(want.Events) > 0 {
			t.Fatalf("followed events %+v, batch %+v", events, want.Events)
		}
		var wantLines []string
		for _, l := range strings.SplitAfter(string(monData), "\n") {
			if l != "" && len(l) <= enginelog.MaxLineLen {
				wantLines = append(wantLines, l)
			}
		}
		if !reflect.DeepEqual(lines, wantLines) {
			t.Fatalf("followed monitoring lines %q, want %q", lines, wantLines)
		}
	})
}
