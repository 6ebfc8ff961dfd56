package rundir

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grade10/internal/enginelog"
)

// Follow with a LogChunk sink must deliver the raw bytes of a binary
// execution log, including bytes appended across polls, so a
// format-detecting consumer can decode mid-write.
func TestFollowLogChunkBinary(t *testing.T) {
	dir := t.TempDir()
	run := sampleRun()
	var bin bytes.Buffer
	if err := enginelog.WriteBinary(&bin, run.Log); err != nil {
		t.Fatal(err)
	}
	data := bin.Bytes()

	// Write the first half, start following, then append the rest and the
	// metadata so the follow completes.
	logPath := filepath.Join(dir, "execution.log")
	if err := os.WriteFile(logPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var got []byte
	var dec enginelog.Decoder
	var events []enginelog.Event
	done := make(chan error, 1)
	go func() {
		done <- Follow(dir, FollowOptions{Poll: 5 * time.Millisecond, Idle: 50 * time.Millisecond},
			nil, FollowSink{
				LogChunk: func(chunk []byte) {
					got = append(got, chunk...)
					dec.Feed(chunk, func(e enginelog.Event) { events = append(events, e) })
				},
			})
	}()

	time.Sleep(20 * time.Millisecond)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// run.json signals completeness to the follower.
	if err := os.WriteFile(filepath.Join(dir, "run.json"), []byte(`{"engine":"giraph","job":"job"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	dec.Finish()
	if !bytes.Equal(got, data) {
		t.Fatalf("followed %d bytes, want %d identical bytes", len(got), len(data))
	}
	if st := dec.Stats(); st.Events != len(run.Log.Events) || st.Degraded() {
		t.Fatalf("decoded stats %+v", st)
	}
	for i, e := range events {
		if e != run.Log.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// A followed run.json goes through the same decoder as Load: bytes that do
// not parse are mid-write and retried, while a well-formed run.json from a
// newer schema ends the follow with Load's error, before the sink sees it.
func TestFollowRejectsNewerInfo(t *testing.T) {
	dir := t.TempDir()
	infos := 0
	fl := newFollower(dir, FollowSink{Info: func(Info) error { infos++; return nil }})
	infoPath := filepath.Join(dir, infoFile)
	appendFile(t, infoPath, []byte(`{"version": 99, "engine": "gir`))
	if _, err := fl.poll(); err != nil {
		t.Fatalf("partial run.json: %v, want a retry", err)
	}
	appendFile(t, infoPath, []byte(`aph", "job": "job"}`))
	_, err := fl.poll()
	if err == nil || !strings.Contains(err.Error(), "schema version 99 is newer than supported version 1") {
		t.Fatalf("newer run.json: err = %v", err)
	}
	if infos != 0 || fl.infoSeen {
		t.Fatalf("newer run.json reached the sink (%d calls, seen %v)", infos, fl.infoSeen)
	}
	if err := Follow(dir, FollowOptions{Poll: time.Millisecond}, nil, FollowSink{}); err == nil {
		t.Fatal("Follow accepted a newer run.json")
	}
}
