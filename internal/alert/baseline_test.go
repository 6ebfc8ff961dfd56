package alert

import (
	"math"
	"testing"

	"grade10/internal/profstore"
)

func findCell(t *testing.T, cells []CellValue, k Key) float64 {
	t.Helper()
	for _, c := range cells {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no cell %+v in %+v", k, cells)
	return 0
}

// TestRecordCells checks the (phase × machine × resource) cell derivation,
// including the machine -1 aggregates.
func TestRecordCells(t *testing.T) {
	cells := recordCells(baselineRecord(1))

	if got := findCell(t, cells, Key{Quantity: QuantityDuration, PhasePath: "/pr/compute", Machine: 0}); got != 4 {
		t.Errorf("duration machine 0 = %g, want 4", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityDuration, PhasePath: "/pr/compute", Machine: 1}); got != 5 {
		t.Errorf("duration machine 1 = %g, want 5", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityDuration, PhasePath: "/pr/compute", Machine: -1}); got != 9 {
		t.Errorf("duration aggregate = %g, want 9", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityBlocked, PhasePath: "/pr/compute", Machine: 0, Resource: "barrier"}); got != 1 {
		t.Errorf("blocked machine 0 = %g, want 1", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityBlocked, PhasePath: "/pr/compute", Machine: -1, Resource: "barrier"}); got != 1 {
		t.Errorf("blocked aggregate = %g, want 1", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityAttributed, PhasePath: "/pr/compute", Machine: -1, Resource: "cpu"}); got != 8 {
		t.Errorf("attributed = %g, want 8", got)
	}
	if got := findCell(t, cells, Key{Quantity: QuantityBottleneck, PhasePath: "/pr/compute", Machine: -1, Resource: "cpu"}); got != 2 {
		t.Errorf("bottleneck = %g, want 2", got)
	}
}

// TestLearnRobustStats checks median, MAD, and EWMA on a known series with an
// outlier the median must shrug off.
func TestLearnRobustStats(t *testing.T) {
	recs := []*profstore.Record{baselineRecord(1), baselineRecord(2), baselineRecord(100)}
	b := Learn(recs)
	if b.Runs() != 3 {
		t.Fatalf("runs = %d, want 3", b.Runs())
	}
	k := Key{Quantity: QuantityDuration, PhasePath: "/pr/compute", Machine: -1}
	st, ok := b.Lookup(k)
	if !ok {
		t.Fatalf("no stat for %+v (%d cells learned)", k, b.Len())
	}
	// Series 9, 18, 900: the median ignores the outlier.
	if st.N != 3 || st.Median != 18 {
		t.Errorf("stat = %+v, want n=3 median=18", st)
	}
	// Deviations |9-18|, 0, |900-18| → MAD = 9.
	if st.MAD != 9 {
		t.Errorf("MAD = %g, want 9", st.MAD)
	}
	// EWMA folds in order: 9 → .3·18+.7·9 = 11.7 → .3·900+.7·11.7 = 278.19.
	if math.Abs(st.EWMA-278.19) > 1e-9 {
		t.Errorf("EWMA = %g, want 278.19", st.EWMA)
	}
}

// TestLearnSkipsAbsentCells: a cell missing from a record contributes no
// zero to that cell's series.
func TestLearnSkipsAbsentCells(t *testing.T) {
	with := baselineRecord(1)
	without := baselineRecord(1)
	without.Bottlenecks = nil
	b := Learn([]*profstore.Record{with, without, with})
	st, ok := b.Lookup(Key{Quantity: QuantityBottleneck, PhasePath: "/pr/compute", Machine: -1, Resource: "cpu"})
	if !ok || st.N != 2 {
		t.Fatalf("bottleneck stat = %+v ok=%v, want n=2", st, ok)
	}
}

// TestLearnArchive learns through the Archive interface end to end.
func TestLearnArchive(t *testing.T) {
	dir := t.TempDir()
	store, err := profstore.Open(dir, profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, 1.1, 0.9} {
		if _, _, err := store.Put(baselineRecord(f)); err != nil {
			t.Fatal(err)
		}
	}
	b := LearnArchive(store)
	if b.Runs() != 3 || b.Len() == 0 {
		t.Fatalf("learned runs=%d cells=%d, want 3 runs and cells", b.Runs(), b.Len())
	}
}
