package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"grade10/internal/enginelog"
)

// TestTreeBuilderOpenMatchesModel drives the builder with a random mix of
// starts (under open, ended and retired parents, including duplicate
// paths), ends (of open, ended, retired and unknown paths) and retirements,
// and checks every outcome against a map model. After every event Open()
// holds exactly the model's open set, each phase once.
func TestTreeBuilderOpenMatchesModel(t *testing.T) {
	m := buildBSPModel(t)
	outcomes := map[string]int{} // accepted kinds and expected errors, over all seeds
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewTreeBuilder(m)
		known := map[string]*Phase{} // ByPath: started and not retired
		open := map[string]*Phase{}
		var all []*Phase // every phase started, in start order
		now := at(0)

		pick := func(keep func(*Phase) bool) *Phase {
			var c []*Phase
			for _, ph := range all {
				if keep(ph) {
					c = append(c, ph)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[rng.Intn(len(c))]
		}
		childPath := func(p *Phase) string {
			kids := p.Type.Children()
			ct := kids[rng.Intn(len(kids))]
			if ct.Repeated {
				return enginelog.JoinIndexed(p.Path, ct.Name, rng.Intn(4))
			}
			return enginelog.Join(p.Path, ct.Name)
		}
		hasKids := func(ph *Phase) bool { return !ph.Type.IsLeaf() }

		app, err := b.Add(enginelog.Event{Kind: enginelog.PhaseStart, Time: now, Path: "/app", Machine: -1})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, app)
		known["/app"], open["/app"] = app, app

		for step := 0; step < 400; step++ {
			now += at(1)
			var ev enginelog.Event
			var wantErr string // "" expects acceptance
			switch op := rng.Intn(5); {
			case op <= 1: // start under a known phase
				p := pick(func(ph *Phase) bool { return known[ph.Path] == ph && hasKids(ph) })
				if p == nil {
					continue
				}
				path := childPath(p)
				ev = enginelog.Event{Kind: enginelog.PhaseStart, Time: now, Path: path, Machine: -1}
				if known[path] != nil {
					wantErr = "duplicate phase"
				}
			case op == 2: // end any path ever started, or one never started
				path := "/app/write/never"
				if ph := pick(func(*Phase) bool { return true }); rng.Intn(8) > 0 {
					path = ph.Path
				}
				ev = enginelog.Event{Kind: enginelog.PhaseEnd, Time: now, Path: path}
				if open[path] == nil {
					wantErr = "end of unknown or closed phase"
				}
			case op == 3: // retire an ended phase
				if ph := pick(func(ph *Phase) bool { return known[ph.Path] == ph && open[ph.Path] == nil }); ph != nil {
					b.Retire(ph)
					delete(known, ph.Path)
				}
				checkOpen(t, b, open)
				continue
			default: // start under a retired phase whose path was not restarted
				p := pick(func(ph *Phase) bool { return known[ph.Path] == nil && hasKids(ph) })
				if p == nil {
					continue
				}
				ev = enginelog.Event{Kind: enginelog.PhaseStart, Time: now, Path: childPath(p), Machine: -1}
				wantErr = "starts before its parent"
				if known[ev.Path] != nil { // a child logged before the retirement
					wantErr = "duplicate phase"
				}
			}

			ph, err := b.Add(ev)
			if wantErr != "" {
				outcomes[wantErr]++
			} else {
				outcomes[[...]string{"start", "end"}[ev.Kind]]++
			}
			switch {
			case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
				t.Fatalf("seed %d step %d: %+v: error %v, want %q", seed, step, ev, err, wantErr)
			case wantErr == "" && err != nil:
				t.Fatalf("seed %d step %d: %+v rejected: %v", seed, step, ev, err)
			case err != nil:
			case ev.Kind == enginelog.PhaseStart:
				if want := known[enginelog.Parent(ev.Path)]; ph.Parent != want && !(want == nil && ph.Parent == b.Root()) {
					t.Fatalf("seed %d step %d: %s started under %q", seed, step, ev.Path, ph.Parent.Path)
				}
				all = append(all, ph)
				known[ev.Path], open[ev.Path] = ph, ph
			default:
				if ph != open[ev.Path] || ph.End != now {
					t.Fatalf("seed %d step %d: end of %s returned %p (End %v), want %p", seed, step, ev.Path, ph, ph.End, open[ev.Path])
				}
				delete(open, ev.Path)
			}
			checkOpen(t, b, open)
		}
	}
	for _, o := range []string{"start", "end", "duplicate phase", "end of unknown or closed phase", "starts before its parent"} {
		if outcomes[o] == 0 {
			t.Errorf("no event had outcome %q: %v", o, outcomes)
		}
	}
}

// checkOpen fails unless b.Open() holds exactly the phases of want, once
// each.
func checkOpen(t *testing.T, b *TreeBuilder, want map[string]*Phase) {
	t.Helper()
	got := b.Open()
	seen := map[*Phase]bool{}
	for _, ph := range got {
		if seen[ph] || want[ph.Path] != ph {
			t.Fatalf("Open() holds %s twice or not open: %d phases, want %d", ph.Path, len(got), len(want))
		}
		seen[ph] = true
	}
	if len(got) != len(want) {
		t.Fatalf("Open() holds %d phases, want %d", len(got), len(want))
	}
}

// TestTreeBuilderRetiredParentRejected pins the start rule against the
// builder's last-started shortcut: a start naming a retired phase as parent
// fails with "starts before its parent", whether the retired phase is the
// last started phase or that phase's parent.
func TestTreeBuilderRetiredParentRejected(t *testing.T) {
	m := buildBSPModel(t)
	for _, c := range []struct {
		name   string
		before []string // events before the retirement, as "S path" or "E path"
		start  string
	}{
		{"last started", []string{"S /app/execute", "E /app/execute"}, "/app/execute/superstep.0"},
		{"parent of last started", []string{"S /app/execute", "S /app/execute/superstep.0",
			"E /app/execute/superstep.0", "E /app/execute"}, "/app/execute/superstep.1"},
	} {
		b := NewTreeBuilder(m)
		add := func(kind enginelog.Kind, path string) (*Phase, error) {
			return b.Add(enginelog.Event{Kind: kind, Time: at(1), Path: path, Machine: -1})
		}
		if _, err := add(enginelog.PhaseStart, "/app"); err != nil {
			t.Fatal(err)
		}
		var exec *Phase
		for _, s := range c.before {
			kind := enginelog.PhaseStart
			if s[0] == 'E' {
				kind = enginelog.PhaseEnd
			}
			ph, err := add(kind, s[2:])
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, s, err)
			}
			if ph.Path == "/app/execute" {
				exec = ph
			}
		}
		b.Retire(exec)
		_, err := add(enginelog.PhaseStart, c.start)
		want := fmt.Sprintf("phase %q starts before its parent %q", c.start, "/app/execute")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: start under the retired parent: %v, want %q", c.name, err, want)
		}
	}
}
