package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"grade10/internal/enginelog"
	"grade10/internal/vtime"
)

const ms = vtime.Millisecond

func at(msec int64) vtime.Time { return vtime.Time(msec) * vtime.Time(ms) }

// logBuilder produces enginelog events at explicit times.
type logBuilder struct {
	now vtime.Time
	l   *enginelog.Logger
}

func newLogBuilder() *logBuilder {
	b := &logBuilder{}
	b.l = enginelog.NewLogger(func() vtime.Time { return b.now })
	return b
}
func (b *logBuilder) start(t vtime.Time, path string, machine int) *logBuilder {
	b.now = t
	b.l.StartPhase(path, machine)
	return b
}
func (b *logBuilder) end(t vtime.Time, path string) *logBuilder {
	b.now = t
	b.l.EndPhase(path)
	return b
}
func (b *logBuilder) block(t0, t1 vtime.Time, path, res string) *logBuilder {
	b.now = t1
	b.l.BlockedSince(path, res, t0)
	return b
}

func simpleTrace(t *testing.T) *ExecutionTrace {
	t.Helper()
	m := buildBSPModel(t)
	b := newLogBuilder()
	b.start(at(0), "/app", -1).
		start(at(0), "/app/load", 0).
		end(at(100), "/app/load").
		start(at(100), "/app/execute", -1).
		start(at(100), "/app/execute/superstep.0", -1).
		start(at(100), "/app/execute/superstep.0/worker.0", 0).
		start(at(100), "/app/execute/superstep.0/worker.0/compute", -1).
		start(at(100), "/app/execute/superstep.0/worker.1", 1).
		start(at(100), "/app/execute/superstep.0/worker.1/compute", -1).
		block(at(140), at(160), "/app/execute/superstep.0/worker.0/compute", "gc").
		end(at(200), "/app/execute/superstep.0/worker.0/compute").
		end(at(200), "/app/execute/superstep.0/worker.0").
		end(at(250), "/app/execute/superstep.0/worker.1/compute").
		end(at(250), "/app/execute/superstep.0/worker.1").
		start(at(250), "/app/execute/superstep.0/barrier", -1).
		end(at(260), "/app/execute/superstep.0/barrier").
		end(at(260), "/app/execute/superstep.0").
		end(at(260), "/app/execute").
		start(at(260), "/app/write", -1).
		end(at(300), "/app/write").
		end(at(300), "/app")
	tr, err := BuildExecutionTrace(b.l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildExecutionTrace(t *testing.T) {
	tr := simpleTrace(t)
	if tr.Start != at(0) || tr.End != at(300) {
		t.Fatalf("span [%v,%v)", tr.Start, tr.End)
	}
	app := tr.ByPath["/app"]
	if app == nil || len(app.Children) != 3 {
		t.Fatalf("app children: %+v", app)
	}
	w0c := tr.ByPath["/app/execute/superstep.0/worker.0/compute"]
	if w0c == nil {
		t.Fatal("missing compute phase")
	}
	if w0c.Machine != 0 {
		t.Fatalf("machine inheritance: %d", w0c.Machine)
	}
	w1c := tr.ByPath["/app/execute/superstep.0/worker.1/compute"]
	if w1c.Machine != 1 {
		t.Fatalf("machine inheritance: %d", w1c.Machine)
	}
	if len(w0c.Blocked) != 1 || w0c.Blocked[0].Resource != "gc" {
		t.Fatalf("blocked = %+v", w0c.Blocked)
	}
	if w0c.Index() != -1 {
		t.Fatalf("compute index %d", w0c.Index())
	}
	if got := tr.ByPath["/app/execute/superstep.0/worker.1"].Index(); got != 1 {
		t.Fatalf("worker index %d", got)
	}
}

func TestTraceLeavesAndPhasesOfType(t *testing.T) {
	tr := simpleTrace(t)
	leaves := tr.Leaves()
	// load, compute×2, barrier, write = 5 leaves.
	if len(leaves) != 5 {
		t.Fatalf("%d leaves", len(leaves))
	}
	computes := tr.PhasesOfType("/app/execute/superstep/worker/compute")
	if len(computes) != 2 {
		t.Fatalf("%d computes", len(computes))
	}
	if computes[0].Path > computes[1].Path {
		t.Fatal("not sorted")
	}
}

func TestActiveFraction(t *testing.T) {
	tr := simpleTrace(t)
	c := tr.ByPath["/app/execute/superstep.0/worker.0/compute"]
	// Phase [100,200) with gc block [140,160).
	if got := c.ActiveFraction(at(100), at(200)); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("active fraction %v", got)
	}
	// Slice fully inside the block.
	if got := c.ActiveFraction(at(145), at(155)); got != 0 {
		t.Fatalf("blocked slice fraction %v", got)
	}
	// Slice before the phase.
	if got := c.ActiveFraction(at(0), at(50)); got != 0 {
		t.Fatalf("pre-phase fraction %v", got)
	}
	// Partial overlap: [90,110) overlaps phase for 10ms of 20ms.
	if got := c.ActiveFraction(at(90), at(110)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("partial fraction %v", got)
	}
}

func TestAncestorBlockingPropagates(t *testing.T) {
	m := buildBSPModel(t)
	b := newLogBuilder()
	b.start(at(0), "/app", -1).
		start(at(0), "/app/execute", -1).
		start(at(0), "/app/execute/superstep.0", -1).
		start(at(0), "/app/execute/superstep.0/worker.0", 0).
		start(at(0), "/app/execute/superstep.0/worker.0/compute", -1).
		block(at(20), at(40), "/app/execute/superstep.0/worker.0", "gc").
		end(at(100), "/app/execute/superstep.0/worker.0/compute").
		end(at(100), "/app/execute/superstep.0/worker.0").
		end(at(100), "/app/execute/superstep.0").
		end(at(100), "/app/execute").
		end(at(100), "/app")
	tr, err := BuildExecutionTrace(b.l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.ByPath["/app/execute/superstep.0/worker.0/compute"]
	// The worker-level block subtracts from the child's activity.
	if got := c.ActiveFraction(at(0), at(100)); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("active fraction %v", got)
	}
}

func TestBlockedTimeUnionsOverlaps(t *testing.T) {
	p := &Phase{
		Start: at(0), End: at(100),
		Blocked: []BlockInterval{
			{Resource: "gc", Start: at(10), End: at(30)},
			{Resource: "gc", Start: at(20), End: at(40)},
			{Resource: "queue", Start: at(50), End: at(60)},
		},
	}
	if got := p.BlockedTime("gc", p.Start, p.End); got != 30*ms {
		t.Fatalf("gc blocked %v", got)
	}
	if got := p.BlockedTime("", p.Start, p.End); got != 40*ms {
		t.Fatalf("total blocked %v", got)
	}
	if got := p.BlockedTime("queue", p.Start, p.End); got != 10*ms {
		t.Fatalf("queue blocked %v", got)
	}
	// Clipped: [25, 55) keeps gc [25, 40) and queue [50, 55).
	if got := p.BlockedTime("gc", at(25), at(55)); got != 15*ms {
		t.Fatalf("clipped gc blocked %v", got)
	}
	if got := p.BlockedTime("", at(25), at(55)); got != 20*ms {
		t.Fatalf("clipped total blocked %v", got)
	}
	if got := p.BlockedTime("gc", at(60), at(100)); got != 0 {
		t.Fatalf("gc blocked outside its stalls %v", got)
	}
}

func TestBuildTraceErrors(t *testing.T) {
	m := buildBSPModel(t)
	type caseFn func(b *logBuilder)
	cases := map[string]caseFn{
		"unknown type": func(b *logBuilder) {
			b.start(at(0), "/app", -1).start(at(0), "/app/mystery", -1).
				end(at(10), "/app/mystery").end(at(10), "/app")
		},
		"orphan child": func(b *logBuilder) {
			b.start(at(0), "/app/load", -1).end(at(10), "/app/load")
		},
		"unclosed phase": func(b *logBuilder) {
			b.start(at(0), "/app", -1)
		},
		"duplicate start": func(b *logBuilder) {
			b.start(at(0), "/app", -1).start(at(1), "/app", -1).end(at(10), "/app")
		},
		"end unknown": func(b *logBuilder) {
			b.start(at(0), "/app", -1).end(at(5), "/app/load").end(at(10), "/app")
		},
		"child escapes parent": func(b *logBuilder) {
			b.start(at(0), "/app", -1).start(at(0), "/app/load", -1).
				end(at(5), "/app").end(at(10), "/app/load")
		},
		"block outside phase": func(b *logBuilder) {
			b.start(at(10), "/app", -1).block(at(0), at(5), "/app", "gc").end(at(20), "/app")
		},
		"empty log": func(b *logBuilder) {},
	}
	for name, fn := range cases {
		b := newLogBuilder()
		fn(b)
		if _, err := BuildExecutionTrace(b.l.Log(), m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTreeBuilderIncremental drives the builder event by event, as the
// online engine does: each accepted event returns its phase, a rejected
// event leaves the tree unchanged, a blocking event may follow its phase's
// end, and a retired path is forgotten.
func TestTreeBuilderIncremental(t *testing.T) {
	m := buildBSPModel(t)
	b := NewTreeBuilder(m)
	add := func(ev enginelog.Event) *Phase {
		t.Helper()
		ph, err := b.Add(ev)
		if err != nil {
			t.Fatal(err)
		}
		return ph
	}
	app := add(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(0), Path: "/app", Machine: -1})
	load := add(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(0), Path: "/app/load", Machine: 2})
	if load.Parent != app || load.Machine != 2 || len(b.Open()) != 2 {
		t.Fatalf("start: parent %p machine %d open %d", load.Parent, load.Machine, len(b.Open()))
	}
	if ph, err := b.Add(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(1), Path: "/app/load", Machine: -1}); err == nil || ph != nil {
		t.Fatal("duplicate start accepted")
	}
	if len(app.Children) != 1 || len(b.Open()) != 2 {
		t.Fatal("rejected start changed the tree")
	}
	if got := add(enginelog.Event{Kind: enginelog.PhaseEnd, Time: at(10), Path: "/app/load"}); got != load || load.End != at(10) {
		t.Fatalf("end returned %v, End %v", got, load.End)
	}
	// A blocking interval logged after its phase ended, at the same instant.
	add(enginelog.Event{Kind: enginelog.Blocked, Time: at(9), End: at(10), Path: "/app/load", Resource: "gc"})
	if _, err := b.Add(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(20), Path: "/app/load", Machine: -1}); err == nil {
		t.Fatal("second start of an ended path accepted")
	}
	if ph := add(enginelog.Event{Kind: enginelog.Counter, Time: at(5), Name: "msgs", Value: 1}); ph != nil {
		t.Fatal("counter returned a phase")
	}
	add(enginelog.Event{Kind: enginelog.PhaseEnd, Time: at(30), Path: "/app"})
	if len(b.Open()) != 0 || b.Root().Children[0] != app {
		t.Fatal("open phases or root children wrong")
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.End != at(30) || len(tr.ByPath["/app/load"].Blocked) != 1 {
		t.Fatalf("finished trace: end %v, blocked %+v", tr.End, tr.ByPath["/app/load"].Blocked)
	}

	b.Retire(load)
	if len(app.Children) != 0 || tr.ByPath["/app/load"] != nil {
		t.Fatal("retired phase still linked")
	}
	if _, err := b.Add(enginelog.Event{Kind: enginelog.Blocked, Time: at(1), End: at(2), Path: "/app/load", Resource: "gc"}); err == nil {
		t.Fatal("blocking event for a retired phase accepted")
	}
}

// TestTreeBuilderResolvesLikeTypePath pins the builder's path resolution to
// its definition: a started phase's type is the model type at its type path
// and its parent the phase at its parent path, and a rejection reports the
// missing type before the missing parent. A non-canonical path (no leading
// slash, an empty segment or a trailing slash) is rejected before either
// lookup, so no phase enters the tree under a second spelling.
func TestTreeBuilderResolvesLikeTypePath(t *testing.T) {
	m := buildBSPModel(t)
	base := []string{"/app", "/app/execute", "/app/execute/superstep.0", "/app/execute/superstep.0/worker.1"}
	paths := []string{
		"/app/load", "/app/execute/superstep.1", "/app/execute/superstep.0/worker.1/compute",
		"/app/execute/superstep.0/worker.0/compute", "/app/mystery", "/app/load.7",
		"/app/execute/superstep.x/worker.1", "/other", "/app.2",
	}
	nonCanonical := []string{
		"/app/", "/app/execute/superstep.0/", "/app//load", "app/load", "/", "", "//app",
	}
	for _, path := range append(paths, nonCanonical...) {
		b := NewTreeBuilder(m)
		for _, p := range base {
			if _, err := b.Add(enginelog.Event{Kind: enginelog.PhaseStart, Path: p, Machine: -1}); err != nil {
				t.Fatal(err)
			}
		}
		ph, err := b.Add(enginelog.Event{Kind: enginelog.PhaseStart, Path: path, Machine: -1})

		wantType := m.LookupInstance(path)
		wantParent, parentOK := b.Root(), true
		if pp := enginelog.Parent(path); pp != "/" {
			wantParent, parentOK = b.tr.ByPath[pp]
		}
		switch {
		case slices.Contains(nonCanonical, path):
			if err == nil || !strings.Contains(err.Error(), "not canonical") {
				t.Errorf("%q: err %v, want a non-canonical rejection", path, err)
			}
		case wantType == nil:
			if err == nil || !strings.Contains(err.Error(), "has no type") {
				t.Errorf("%q: err %v, want a missing-type rejection", path, err)
			}
		case !parentOK:
			if err == nil || !strings.Contains(err.Error(), "starts before its parent") {
				t.Errorf("%q: err %v, want a missing-parent rejection", path, err)
			}
		case err != nil:
			t.Errorf("%q: rejected: %v", path, err)
		case ph.Type != wantType || ph.Parent != wantParent:
			t.Errorf("%q: type %s parent %s, want %s under %s",
				path, ph.Type.Path(), ph.Parent.Path, wantType.Path(), wantParent.Path)
		}
		if err != nil && len(b.tr.ByPath) != len(base) {
			t.Errorf("%q: rejected start changed the tree", path)
		}
	}
}

// TestLeavesSharedOnceFinished checks the leaf cache: a finished trace sorts
// its leaves once and hands out one clipped slice, while a trace assembled
// by hand over a growing tree, as a live window is, sees every new leaf.
func TestLeavesSharedOnceFinished(t *testing.T) {
	tr := simpleTrace(t)
	a, b := tr.Leaves(), tr.Leaves()
	if &a[0] != &b[0] || cap(a) != len(a) {
		t.Fatal("finished trace re-collected its leaves or handed out spare capacity")
	}

	bld := NewTreeBuilder(buildBSPModel(t))
	window := &ExecutionTrace{Root: bld.Root()}
	for i, step := range []struct {
		path string
		want []string
	}{
		{"/app", []string{"/app"}},
		{"/app/load", []string{"/app/load"}},
		{"/app/execute", []string{"/app/load", "/app/execute"}},
	} {
		if _, err := bld.Add(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(int64(i)), Path: step.path, Machine: -1}); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, leaf := range window.Leaves() {
			got = append(got, leaf.Path)
		}
		if strings.Join(got, " ") != strings.Join(step.want, " ") {
			t.Fatalf("after %s: window leaves %v, want %v", step.path, got, step.want)
		}
	}
}

// TestPhaseIndexMatchesSplit: Index reads the last segment in place and
// gives what splitting the whole path gives, for the root "/", canonical
// paths and odd ones, without allocating.
func TestPhaseIndexMatchesSplit(t *testing.T) {
	split := func(path string) int {
		segs := enginelog.Split(path)
		if len(segs) == 0 {
			return -1
		}
		return enginelog.SegmentIndex(segs[len(segs)-1])
	}
	for _, path := range []string{
		"", "/", "//", "/app", "/app/execute/superstep.12", "/app/execute/superstep.3/worker.0",
		"/app/load/worker.7/", "/a.1//b.22", "/a.b.3", "/a.x", "/a.", "/.5", "a.4", "/w.-1",
	} {
		p := &Phase{Path: path}
		if got, want := p.Index(), split(path); got != want {
			t.Errorf("Index(%q) = %d, split form %d", path, got, want)
		}
	}
	p := &Phase{Path: "/app/execute/superstep.12/worker.3"}
	if allocs := testing.AllocsPerRun(100, func() { p.Index() }); allocs != 0 {
		t.Errorf("Index allocates %v times per call", allocs)
	}
}
