package rundir

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
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

// Data that lands before run.json stays on disk: polls deliver nothing
// until run.json parses, and then one poll delivers every byte and every
// line, the log first.
func TestFollowWaitsForInfo(t *testing.T) {
	dir := t.TempDir()
	appendFile(t, filepath.Join(dir, logFile), []byte("S 0 0 /job\nE 5 /job\n"))
	appendFile(t, filepath.Join(dir, monitoringFile), []byte("machine,resource,capacity,start_ns,end_ns,avg\n0,cpu,8,0,5,1\n"))
	var got []string
	fl := newFollower(dir, FollowSink{
		LogChunk:       func(chunk []byte) { got = append(got, "log:"+string(chunk)) },
		MonitoringLine: func(line string) { got = append(got, "mon:"+line) },
	})
	for i := 0; i < 3; i++ {
		grew, err := fl.poll()
		if err != nil || grew || len(got) != 0 {
			t.Fatalf("poll %d without run.json: grew %v, delivered %q, err %v", i, grew, got, err)
		}
	}
	appendFile(t, filepath.Join(dir, infoFile), []byte(`{"engine":"giraph","job":"job"}`))
	if grew, err := fl.poll(); err != nil || !grew {
		t.Fatalf("poll with run.json: grew %v, err %v", grew, err)
	}
	want := []string{"log:S 0 0 /job\nE 5 /job\n",
		"mon:machine,resource,capacity,start_ns,end_ns,avg\n", "mon:0,cpu,8,0,5,1\n"}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// Closing stop ends the follow only after one more drain of both data files,
// so bytes appended after the last poll still reach the sink.
func TestFollowDrainsOnStop(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logFile)
	monPath := filepath.Join(dir, monitoringFile)
	appendFile(t, filepath.Join(dir, infoFile), []byte(`{"engine":"giraph","job":"job"}`))
	appendFile(t, logPath, []byte("head\n"))
	appendFile(t, monPath, []byte("machine,resource,capacity,start_ns,end_ns,avg\n"))

	var log []byte
	var lines []string
	infoSeen := make(chan struct{})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// Poll and Idle never elapse: only stop ends the follow.
		done <- Follow(dir, FollowOptions{Poll: time.Hour, Idle: time.Hour}, stop, FollowSink{
			Info:           func(Info) error { close(infoSeen); return nil },
			LogChunk:       func(chunk []byte) { log = append(log, chunk...) },
			MonitoringLine: func(line string) { lines = append(lines, line) },
		})
	}()
	// Info fires before the first poll drains both files; the appends below
	// reach the sink through that drain or the one stop forces.
	<-infoSeen
	appendFile(t, logPath, []byte("tail\n"))
	appendFile(t, monPath, []byte("0,cpu,8,0,10,1\n"))
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(log) != "head\ntail\n" {
		t.Fatalf("log = %q, want the appended tail", log)
	}
	if len(lines) != 2 || lines[1] != "0,cpu,8,0,10,1\n" {
		t.Fatalf("monitoring lines = %q, want the appended row", lines)
	}
}

// A sink whose Complete answers true ends the follow after its first poll,
// with no sleep (Poll and Idle are an hour), and the drain that follows still
// delivers log bytes that landed after the poll had read the log.
func TestFollowEndsOnComplete(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logFile)
	appendFile(t, filepath.Join(dir, infoFile), []byte(`{"engine":"giraph","job":"job"}`))
	appendFile(t, logPath, []byte("head\n"))

	var (
		log       []byte
		checks    int
		appendErr error
	)
	done := make(chan error, 1)
	go func() {
		done <- Follow(dir, FollowOptions{Poll: time.Hour, Idle: time.Hour}, nil, FollowSink{
			LogChunk: func(chunk []byte) { log = append(log, chunk...) },
			Complete: func() bool {
				checks++
				f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
				if err == nil {
					_, err = f.WriteString("tail\n")
					f.Close()
				}
				appendErr = err
				return true
			},
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Follow slept although its sink reported the run complete")
	}
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if checks != 1 || string(log) != "head\ntail\n" {
		t.Fatalf("%d completeness checks, log %q; want one check and the appended tail", checks, log)
	}
}
