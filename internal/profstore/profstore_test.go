package profstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// Store-assigned and host-dependent fields do not change the identity.
	b.Label = "other-label"
	b.Seq = 99
	b.Bench = []BenchStage{{Name: "attribution", NsPerOp: map[string]float64{"workers=1": 123}}}
	if ContentID(a) != ContentID(b) {
		t.Fatal("label/seq/bench changed the content ID")
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

	// A record written without a version field loads as v1.
	path := filepath.Join(dir, "runs", meta.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(data), fmt.Sprintf("\"version\": %d", Version), "\"version\": 0", 1)
	if legacy == string(data) {
		t.Fatal("fixture did not strip the version field")
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("legacy record version = %d, want 1", got.Version)
	}

	// A record from a future schema is rejected with a clear error.
	future := strings.Replace(string(data), fmt.Sprintf("\"version\": %d", Version), "\"version\": 999", 1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(meta.ID); err == nil || !strings.Contains(err.Error(), "version 999") {
		t.Fatalf("future version: err = %v", err)
	}

	// Same for the index itself.
	idx, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	futureIdx := strings.Replace(string(idx), fmt.Sprintf("\"version\": %d", Version), "\"version\": 999", 1)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(futureIdx), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("future index version should be rejected")
	}
}

func TestRecordJSONStable(t *testing.T) {
	rec := testRecord("pr", 1_234_567_890)
	a, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
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
