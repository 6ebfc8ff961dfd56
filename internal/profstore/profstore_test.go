package profstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testRecord(job string, makespanNS int64) *Record {
	return &Record{
		Engine: "giraph", Job: job, Workers: 2,
		Timeslices: 100, TimesliceNS: 10_000_000, MakespanNS: makespanNS,
		Phases: []PhaseSummary{
			{TypePath: "/" + job, Machine: -1, Count: 1, TotalNS: makespanNS,
				MeanNS: makespanNS, MaxNS: makespanNS},
			{TypePath: "/" + job + "/execute/superstep/worker/compute/thread",
				Machine: 0, Leaf: true, Count: 8, TotalNS: makespanNS / 2,
				MeanNS: makespanNS / 16, MaxNS: makespanNS / 8,
				BlockedNS: map[string]int64{"gc": makespanNS / 20}},
		},
		Resources: []ResourceSummary{
			{Key: "cpu@0", Resource: "cpu", Machine: 0, Capacity: 8,
				ConsumedUnitSeconds: 3.5, AttributedUnitSeconds: 3.2,
				UnattributedUnitSeconds: 0.3, AvgUtilization: 0.6},
		},
		Attribution: []AttributionCell{
			{TypePath: "/" + job + "/execute/superstep/worker/compute/thread",
				Resource: "cpu", UnitSeconds: 3.2},
		},
		Bottlenecks: []BottleneckSummary{
			{TypePath: "/" + job + "/execute/superstep/worker/compute/thread",
				Resource: "cpu", Kind: "saturation", Phases: 4, TotalNS: makespanNS / 10},
		},
		Issues: []IssueSummary{
			{Kind: "bottleneck", Target: "cpu", OriginalNS: makespanNS,
				OptimisticNS: makespanNS * 9 / 10, Impact: 0.1},
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("pr", 1_000_000_000)
	rec.Label = "baseline"
	meta, evicted, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("unexpected evictions: %v", evicted)
	}
	if meta.ID == "" || meta.ID != rec.ID {
		t.Fatalf("meta ID %q, record ID %q", meta.ID, rec.ID)
	}
	got, err := s.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != "pr" || got.Label != "baseline" || got.Version != Version {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Phases) != 2 || got.Phases[1].BlockedNS["gc"] != 50_000_000 {
		t.Fatalf("phases did not survive: %+v", got.Phases)
	}

	// Prefix resolution finds the run; short and ambiguous prefixes do not.
	if _, err := s.Get(meta.ID[:6]); err != nil {
		t.Fatalf("prefix get: %v", err)
	}
	if _, err := s.Get("zz"); err == nil {
		t.Fatal("2-char prefix should not resolve")
	}
	if _, err := s.Get("no-such-run"); err == nil {
		t.Fatal("missing run should error")
	}
}

func TestContentIDDeterministicAndIdempotent(t *testing.T) {
	a := testRecord("pr", 1_000_000_000)
	b := testRecord("pr", 1_000_000_000)
	// Store-assigned fields do not change the identity.
	b.Label = "other-label"
	b.Seq = 99
	if ContentID(a) != ContentID(b) {
		t.Fatal("label/seq changed the content ID")
	}
	c := testRecord("pr", 1_100_000_000)
	if ContentID(a) == ContentID(c) {
		t.Fatal("different makespans share a content ID")
	}

	// Re-archiving the same content replaces, not duplicates.
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("idempotent put: %d runs retained", s.Len())
	}
}

func TestEvictionOrderAndCounter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		rec := testRecord("pr", int64(1_000_000_000+i*7_000_000))
		if _, _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if s.Len() != 3 {
		t.Fatalf("retained %d, want 3", s.Len())
	}
	if s.EvictedTotal() != 2 {
		t.Fatalf("evicted_total %d, want 2", s.EvictedTotal())
	}
	// Oldest two (first appended) are gone, newest three remain, in order.
	list := s.List()
	for i, m := range list {
		if m.ID != ids[i+2] {
			t.Fatalf("list[%d] = %s, want %s", i, m.ID, ids[i+2])
		}
	}
	for _, id := range ids[:2] {
		if _, err := os.Stat(filepath.Join(dir, "runs", id+".json")); !os.IsNotExist(err) {
			t.Fatalf("evicted run file %s still present (err=%v)", id, err)
		}
		if _, err := s.Get(id); err == nil {
			t.Fatalf("evicted run %s still resolvable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("retained run %s: %v", id, err)
		}
	}

	// The persisted index reflects the same state after reopen.
	s2, err := Open(dir, Options{MaxRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 || s2.EvictedTotal() != 2 {
		t.Fatalf("reopened store: len %d evicted %d", s2.Len(), s2.EvictedTotal())
	}
}

func TestVersionCompat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("pr", 1_000_000_000)
	meta, _, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", meta.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version := fmt.Sprintf(`"version":%d`, Version)
	rewrite := func(t *testing.T, path, from, to string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(data), from, to, 1)
		if edited == string(data) {
			t.Fatalf("%s holds no %s", path, from)
		}
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A record written without a version field loads as v1.
	rewrite(t, path, version, `"version":0`)
	got, err := s.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("legacy record version = %d, want 1", got.Version)
	}

	// So does an indented record of earlier builds, under the same ID.
	old, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(old, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	rewrite(t, path, fmt.Sprintf(`"version": %d`, Version), `"version": 0`)
	if got, err = s.Get(meta.ID); err != nil || got.Version != 1 || ContentID(got) != meta.ID {
		t.Fatalf("indented legacy record: %+v, %v", got, err)
	}

	// A record with the wall-clock "bench" section older builds wrote still
	// opens, under the same content ID.
	withBench := string(data[:len(data)-1]) + `,"bench":[{"name":"attribution","ns_per_op":{"workers=1":123}}]}`
	if err := os.WriteFile(path, []byte(withBench), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = reopened.Get(meta.ID)
	if err != nil {
		t.Fatalf("record with a bench section: %v", err)
	}
	if got.ID != meta.ID || ContentID(got) != meta.ID {
		t.Fatalf("record with a bench section: id %q, content id %q, want %q", got.ID, ContentID(got), meta.ID)
	}

	// A record from a future schema is rejected with a clear error.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rewrite(t, path, version, `"version":999`)
	if _, err := s.Get(meta.ID); err == nil || !strings.Contains(err.Error(), "version 999") {
		t.Fatalf("future version: err = %v", err)
	}

	// Same for the index itself.
	rewrite(t, filepath.Join(dir, "index.json"), version, `"version":999`)
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("future index version should be rejected")
	}
}

// TestRecordFileIsContentAddressed: after a fresh Put, a replacing Put and
// evictions, every record file holds exactly the record's compact encoding
// with ID, Seq and Label zeroed, and the first 12 hex digits of its SHA-256
// are its name. Get takes ID, Seq and Label from the index alone, also from
// an indented file of earlier builds whose own seq and label disagree.
func TestRecordFileIsContentAddressed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{} // record file bytes by ID
	check := func(t *testing.T, step string) {
		t.Helper()
		files, _ := filepath.Glob(filepath.Join(dir, "runs", "*"))
		if len(files) != s.Len() {
			t.Fatalf("%s: %d record files for %d runs", step, len(files), s.Len())
		}
		for _, m := range s.List() {
			data, err := os.ReadFile(filepath.Join(dir, "runs", m.ID+".json"))
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			sum := sha256.Sum256(data)
			if name := hex.EncodeToString(sum[:6]); name != m.ID || string(data) != string(want[m.ID]) {
				t.Fatalf("%s: runs/%s.json hashes to %s and holds\n%s\nwant\n%s", step, m.ID, name, data, want[m.ID])
			}
			got, err := s.Get(m.ID)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if got.ID != m.ID || got.Seq != m.Seq || got.Label != m.Label {
				t.Fatalf("%s: Get identity (%s, %d, %q), index (%s, %d, %q)",
					step, got.ID, got.Seq, got.Label, m.ID, m.Seq, m.Label)
			}
		}
	}
	put := func(t *testing.T, job, label string, makespanNS int64) Meta {
		t.Helper()
		rec := testRecord(job, makespanNS)
		rec.Label = label
		// The expected bytes, encoded independently of the store.
		plain := testRecord(job, makespanNS)
		plain.Version = Version
		data, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := s.Put(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[meta.ID] = data
		return meta
	}

	first := put(t, "a", "one", 1e9)
	check(t, "fresh put")
	if again := put(t, "a", "two", 1e9); again.ID != first.ID || again.Seq == first.Seq {
		t.Fatalf("replacing put: %+v after %+v", again, first)
	}
	check(t, "replacing put")
	put(t, "b", "", 2e9)
	put(t, "c", "three", 3e9)
	put(t, "d", "four", 4e9)
	if s.EvictedTotal() != 2 {
		t.Fatalf("evicted %d, want 2", s.EvictedTotal())
	}
	check(t, "evictions")

	// An indented file of earlier builds, identity inside and stale: the
	// index wins.
	m := s.List()[0]
	old := testRecord("c", 3e9)
	old.Version, old.ID, old.Seq, old.Label = Version, m.ID, 77, "stale"
	data, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs", m.ID+".json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	old.Seq, old.Label = m.Seq, m.Label
	if !reflect.DeepEqual(got, old) || ContentID(got) != m.ID {
		t.Fatalf("indented record: got %+v, want %+v", got, old)
	}
}

// TestContentIDPinned pins the content ID of a fixed record and of every
// record in the sharded fixture, so the IDs of existing archives cannot
// drift with the encoding.
func TestContentIDPinned(t *testing.T) {
	if got := ContentID(testRecord("pr", 1_234_567_890)); got != "ba1f57b93591" {
		t.Fatalf("ContentID = %s, want ba1f57b93591", got)
	}
	dir := t.TempDir()
	copyTree(t, fixtureDir, dir)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.List() {
		rec, err := s.Get(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := ContentID(rec); got != m.ID {
			t.Fatalf("fixture run %s: ContentID = %s", m.ID, got)
		}
	}
}

func TestRecordJSONStable(t *testing.T) {
	rec := testRecord("pr", 1_234_567_890)
	if a, b := encode(rec), encode(rec); string(a) != string(b) {
		t.Fatal("record encoding is not stable")
	}
}

func TestCorruptIndexTypedError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", err)
	}
	var ce *CorruptIndexError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not unwrap to *CorruptIndexError", err)
	}
	if ce.Path != filepath.Join(dir, indexFile) {
		t.Fatalf("corrupt index path = %q", ce.Path)
	}
}

// TestCorruptRecordTypedError: Get on a garbled record surfaces the typed
// error with the offending path.
func TestCorruptRecordTypedError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Put(testRecord("x", 6e9))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", m.ID+".json")
	if err := os.WriteFile(path, []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(m.ID)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	var ce *CorruptRecordError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("err = %#v, want path %q", err, path)
	}
}

// TestStoreConcurrent runs every Store method from several goroutines on
// one bounded store; -race flags any access the store's lock misses.
func TestStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxRuns: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				meta, _, err := s.Put(testRecord(fmt.Sprintf("g%d-%d", g, i), int64(1e9+i)))
				if err != nil {
					t.Error(err)
					return
				}
				// The run may already be evicted by another goroutine.
				_, _ = s.Get(meta.ID)
				_, _ = s.Resolve(meta.ID[:6])
				for _, m := range s.List() {
					_, _ = s.Resolve(m.ID)
				}
				_, _ = s.Len(), s.EvictedTotal()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 5 || s.EvictedTotal() != 8*20-5 {
		t.Fatalf("len %d evicted %d, want 5 and %d", s.Len(), s.EvictedTotal(), 8*20-5)
	}
	if s.List()[4].Seq != 8*20-1 {
		t.Fatalf("last Seq = %d, want %d", s.List()[4].Seq, 8*20-1)
	}
}

// TestPutReplacesRecordAtomically: re-archiving an ID goes through a
// temporary file renamed into place, so a torn temporary left by a crashed
// write never reaches the record, and a successful Put leaves none behind.
func TestPutReplacesRecordAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := s.Put(testRecord("atomic", 1e9))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", meta.ID+".json")
	if err := os.WriteFile(path+".tmp", []byte(`{"version": 1, "id": "tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(meta.ID); err != nil {
		t.Fatalf("a torn temporary corrupted the record: %v", err)
	}
	rec := testRecord("atomic", 1e9)
	rec.Label = "again"
	if _, _, err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(meta.ID)
	if err != nil || got.Label != "again" {
		t.Fatalf("re-archived record: %+v, %v", got, err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp"))
	if root, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left)+len(root) != 0 {
		t.Fatalf("temporary files left behind: %v %v", left, root)
	}
}
