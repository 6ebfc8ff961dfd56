package profstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fixtureDir is a sharded archive written by the sharded store of earlier
// builds: a single-index archive (MaxRuns 3, two evictions) opened with 3
// shards and 3 runs per shard, nine more runs archived through it, and then
// a plain single-index Open (MaxRuns 1) archiving two runs at the root beside
// shards.json, as the CLI did against a fleet archive.
const fixtureDir = "testdata/sharded"

// fixtureState is what the fixture holds, read straight from its files.
type fixtureState struct {
	runs    []Meta            // every listed run of both layouts, by Seq
	evicted int64             // evicted_base + shard + root eviction counts
	nextSeq int64             // the largest next_seq of any index
	records map[string][]byte // record file bytes by ID
}

func readFixture(t *testing.T) fixtureState {
	t.Helper()
	var meta shardMeta
	readJSON(t, filepath.Join(fixtureDir, "shards.json"), &meta)
	st := fixtureState{evicted: meta.EvictedBase, nextSeq: meta.NextSeq, records: map[string][]byte{}}
	dirs, err := filepath.Glob(filepath.Join(fixtureDir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(dirs, fixtureDir) {
		var idx index
		readJSON(t, filepath.Join(d, "index.json"), &idx)
		st.evicted += idx.EvictedTotal
		st.nextSeq = max(st.nextSeq, idx.NextSeq)
		for _, m := range idx.Runs {
			st.runs = append(st.runs, m)
			data, err := os.ReadFile(filepath.Join(d, "runs", m.ID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			st.records[m.ID] = data
		}
	}
	sort.Slice(st.runs, func(i, j int) bool { return st.runs[i].Seq < st.runs[j].Seq })
	// Pin the fixture's shape, so a regenerated fixture cannot quietly
	// weaken the test.
	labels := 0
	for _, m := range st.runs {
		if m.Label != "" {
			labels++
		}
	}
	if len(dirs) != 3 || len(st.runs) != 9 || meta.EvictedBase == 0 || st.evicted != 7 || labels == 0 {
		t.Fatalf("fixture: %d shards, %d runs, base %d, evicted %d, %d labels",
			len(dirs), len(st.runs), meta.EvictedBase, st.evicted, labels)
	}
	return st
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the directory src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tree lists every file and directory under dir, relative and sorted.
func tree(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel(dir, path); rel != "." {
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkMigrated asserts that dir opens as the fixture's merged archive, in
// the one layout, with every record byte-identical.
func checkMigrated(t *testing.T, dir string, want fixtureState) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.List(); !reflect.DeepEqual(got, want.runs) {
		t.Fatalf("listing:\n got %+v\nwant %+v", got, want.runs)
	}
	if got := s.EvictedTotal(); got != want.evicted {
		t.Fatalf("evicted total = %d, want %d", got, want.evicted)
	}
	for _, m := range want.runs {
		rec, err := s.Get(m.ID)
		if err != nil {
			t.Fatalf("get %s: %v", m.ID, err)
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(append(data, '\n')) != string(want.records[m.ID]) {
			t.Fatalf("record %s changed across the migration", m.ID)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, "runs", m.ID+".json"))
		if err != nil || string(onDisk) != string(want.records[m.ID]) {
			t.Fatalf("record file %s differs (err %v)", m.ID, err)
		}
	}
	files := []string{"index.json", "runs"}
	for _, m := range want.runs {
		files = append(files, filepath.Join("runs", m.ID+".json"))
	}
	sort.Strings(files)
	if got := tree(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatalf("layout after migration:\n got %v\nwant %v", got, files)
	}
	return s
}

// TestOpenMigratesShardedFixture: Open folds a sharded archive, plus the runs
// a single-index Open archived beside it, into one listing in Seq order with
// every ID, Seq, label, record byte, eviction and the sequence counter kept.
func TestOpenMigratesShardedFixture(t *testing.T) {
	want := readFixture(t)
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	s := checkMigrated(t, dir, want)

	meta, _, err := s.Put(testRecord("post-migration", 5e9))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != want.nextSeq {
		t.Fatalf("next Put Seq = %d, want %d", meta.Seq, want.nextSeq)
	}
	// Reopening is stable: nothing left to migrate.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(want.runs)+1 || s2.EvictedTotal() != want.evicted {
		t.Fatalf("reopened: len %d evicted %d", s2.Len(), s2.EvictedTotal())
	}
}

// TestMigrationResumesAfterCrash builds, by hand, the state a crash leaves
// after each migration step and checks that the next Open finishes the job
// without losing or double-counting anything.
func TestMigrationResumesAfterCrash(t *testing.T) {
	want := readFixture(t)
	merged, err := json.Marshal(index{Version: Version, NextSeq: want.nextSeq,
		EvictedTotal: want.evicted, Runs: want.runs})
	if err != nil {
		t.Fatal(err)
	}
	// moveRecords renames the records of the first n shards into runs/,
	// leaving their shard indexes listing files that are gone.
	moveRecords := func(t *testing.T, dir string, n int) {
		dirs, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
		for _, d := range dirs[:n] {
			files, _ := filepath.Glob(filepath.Join(d, "runs", "*.json"))
			for _, f := range files {
				if err := os.Rename(f, filepath.Join(dir, "runs", filepath.Base(f))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	write := func(t *testing.T, path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, paths ...string) {
		for _, p := range paths {
			if err := os.RemoveAll(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"some records moved", func(t *testing.T, dir string) { moveRecords(t, dir, 1) }},
		{"all records moved", func(t *testing.T, dir string) { moveRecords(t, dir, 3) }},
		{"merged index torn", func(t *testing.T, dir string) {
			moveRecords(t, dir, 3)
			write(t, filepath.Join(dir, "index.json.merged"), merged[:len(merged)/2])
		}},
		{"merged index written", func(t *testing.T, dir string) {
			moveRecords(t, dir, 3)
			write(t, filepath.Join(dir, "index.json.merged"), merged)
		}},
		{"committed", func(t *testing.T, dir string) {
			moveRecords(t, dir, 3)
			write(t, filepath.Join(dir, "index.json.merged"), merged)
			remove(t, filepath.Join(dir, "shards.json"))
		}},
		{"merged index renamed", func(t *testing.T, dir string) {
			moveRecords(t, dir, 3)
			write(t, filepath.Join(dir, "index.json"), merged)
			remove(t, filepath.Join(dir, "shards.json"))
		}},
		{"shard cleanup half done", func(t *testing.T, dir string) {
			moveRecords(t, dir, 3)
			write(t, filepath.Join(dir, "index.json"), merged)
			remove(t, filepath.Join(dir, "shards.json"), filepath.Join(dir, "shard-00"),
				filepath.Join(dir, "shard-01", "runs"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, fixtureDir, dir)
			tc.crash(t, dir)
			checkMigrated(t, dir, want)
		})
	}
}

// TestShardedQuarantinesCorruptShard: one garbled shard index does not take
// the archive down. It is renamed to .corrupt with its records left in
// place, and every other run migrates.
func TestShardedQuarantinesCorruptShard(t *testing.T) {
	want := readFixture(t)
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	bad := filepath.Join(dir, "shard-02")
	var lost index
	readJSON(t, filepath.Join(bad, "index.json"), &lost)
	if err := os.WriteFile(filepath.Join(bad, "index.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("one corrupt shard failed the whole archive: %v", err)
	}
	if s.Len() != len(want.runs)-len(lost.Runs) {
		t.Fatalf("len = %d, want %d", s.Len(), len(want.runs)-len(lost.Runs))
	}
	for _, m := range lost.Runs {
		if _, err := s.Resolve(m.ID); err == nil {
			t.Fatalf("run %s of the corrupt shard is listed", m.ID)
		}
		if _, err := os.Stat(filepath.Join(bad, "runs", m.ID+".json")); err != nil {
			t.Fatalf("record of the corrupt shard moved: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(bad, "index.json.corrupt")); err != nil {
		t.Fatalf("corrupt shard index not quarantined: %v", err)
	}
	for _, m := range s.List() {
		if _, err := s.Get(m.ID); err != nil {
			t.Fatalf("surviving record %s: %v", m.ID, err)
		}
	}
}

// TestCorruptRecordSkippedInMigration: a garbled record body does not stop
// the migration. It moves like any other, and Get reports it with the typed
// error while the healthy records load.
func TestCorruptRecordSkippedInMigration(t *testing.T) {
	want := readFixture(t)
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "shard-01", "runs", "*.json"))
	badID := strings.TrimSuffix(filepath.Base(files[0]), ".json")
	if err := os.WriteFile(files[0], []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("one corrupt record failed migration: %v", err)
	}
	if s.Len() != len(want.runs) {
		t.Fatalf("len = %d, want %d", s.Len(), len(want.runs))
	}
	for _, m := range want.runs {
		_, err := s.Get(m.ID)
		if m.ID == badID {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("corrupt record: err = %v, want ErrCorruptRecord", err)
			}
		} else if err != nil {
			t.Fatalf("healthy record %s: %v", m.ID, err)
		}
	}
}

// TestMigrationHostileShardsJSON: a garbled shards.json is a typed error that
// moves nothing, a huge shard count is never trusted, and a run ID that is a
// path quarantines its shard index instead of moving a file outside runs/.
func TestMigrationHostileShardsJSON(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	before := tree(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "shards.json"), []byte(`{"shards": 4,`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var ce *CorruptIndexError
	if !errors.As(err, &ce) || ce.Path != filepath.Join(dir, "shards.json") {
		t.Fatalf("err = %v, want a CorruptIndexError for shards.json", err)
	}
	if got := tree(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("a failed migration moved files:\n got %v\nwant %v", got, before)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shards.json"), []byte(`{"version":1,"shards":1000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := tree(t, dir); !reflect.DeepEqual(got, []string{"index.json", "runs"}) {
		t.Fatalf("layout = %v", got)
	}

	dir = t.TempDir()
	for path, data := range map[string]string{
		"shards.json":         `{"version":1}`,
		"shard-00/index.json": `{"runs":[{"id":"../../outside","seq":0}]}`,
		"outside.json":        `{}`,
	} {
		path = filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"index.json", "outside.json", "runs", "shard-00", "shard-00/index.json.corrupt"}
	if got := tree(t, dir); s.Len() != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("len %d, layout %v, want %v", s.Len(), got, want)
	}
}

// FuzzOpen feeds arbitrary bytes to index.json, shards.json, one shard
// index and one record file, seeded with both the indented encoding of
// earlier builds and the compact one. Open must return a store or a typed
// error, never panic, and create no directory beyond runs/.
func FuzzOpen(f *testing.F) {
	seed := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	compact := func(data []byte) []byte {
		var buf bytes.Buffer
		if err := json.Compact(&buf, data); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	const recordFile = "shard-00/runs/2de9d0e149a5.json"
	record := seed(recordFile)
	var rec Record
	if err := json.Unmarshal(record, &rec); err != nil {
		f.Fatal(err)
	}
	f.Add(seed("index.json"), seed("shards.json"), seed("shard-00/index.json"), record)
	f.Add(compact(seed("index.json")), compact(seed("shards.json")), compact(seed("shard-00/index.json")), encode(&rec))
	f.Add([]byte{}, []byte(`{"version":1,"shards":1000000000,"next_seq":-1}`), []byte(`{"runs":[{"id":"../x"}]}`), record)
	f.Add([]byte(`{"version":2}`), []byte(`{}`), []byte(`{nope`), []byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, rootIdx, shards, shardIdx, record []byte) {
		dir := t.TempDir()
		for path, data := range map[string][]byte{
			"index.json":          rootIdx,
			"shards.json":         shards,
			"shard-00/index.json": shardIdx,
			recordFile:            record,
		} {
			path = filepath.Join(dir, path)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{MaxRuns: 2})
		switch {
		case err == nil:
			for _, m := range s.List() {
				_, _ = s.Get(m.ID)
			}
			if _, _, err := s.Put(testRecord("fuzz", 1e9)); err != nil {
				t.Fatalf("put after open: %v", err)
			}
		case !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrNewerVersion):
			t.Fatalf("untyped error: %v", err)
		}
		allowed := map[string]bool{"runs": true, "shard-00": true, filepath.Join("shard-00", "runs"): true}
		for _, p := range tree(t, dir) {
			if fi, err := os.Stat(filepath.Join(dir, p)); err == nil && fi.IsDir() && !allowed[p] {
				t.Fatalf("Open created directory %s", p)
			}
		}
	})
}
