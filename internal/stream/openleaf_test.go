package stream_test

import (
	"fmt"
	"testing"

	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

// TestWindowReportsOpenLeafBottleneck flushes a window while a leaf that
// saturates its CPU is still running: the window's bottleneck scan must see
// the open leaf's activity, as its attribution does, and report the
// saturation.
func TestWindowReportsOpenLeafBottleneck(t *testing.T) {
	root := core.NewRootType("app")
	root.Child("work", false)
	exec, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 1, PerMachine: true}
	res, err := core.NewResourceModel(cpu)
	if err != nil {
		t.Fatal(err)
	}
	rules := core.NewRuleSet().Set("/app/work", "cpu", core.Variable(1))

	const slice = 10 * vtime.Millisecond
	var got []*stream.WindowResult
	e, err := stream.New(stream.Config{
		Models:    grade10.Models{Exec: exec, Res: res, Rules: rules},
		Timeslice: slice, WindowSlices: 4,
		OnWindowFlush: func(wr *stream.WindowResult) {
			if wr != nil {
				got = append(got, wr)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	win := vtime.Time(4 * slice)
	e.IngestMonitoringLine(fmt.Sprintf("0,cpu,1,0,%d,1\n", 2*win))
	e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: 0, Path: "/app", Machine: 0})
	e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: 0, Path: "/app/work", Machine: -1})
	// A counter past the first window moves the log watermark and flushes
	// it while /app/work is still open.
	e.IngestEvent(enginelog.Event{Kind: enginelog.Counter, Time: win + vtime.Time(slice), Name: "tick", Value: 1})
	if len(got) != 1 {
		t.Fatalf("flushed %d windows, want 1", len(got))
	}
	for _, b := range got[0].Bottlenecks {
		if b.Path == "/app/work" && b.Resource == "cpu" && b.Kind == "saturation" {
			if want := (4 * slice).Seconds(); b.Seconds != want {
				t.Fatalf("open leaf saturated for %vs, want %vs", b.Seconds, want)
			}
			return
		}
	}
	t.Fatalf("window 0 bottlenecks %+v: no saturation of the open /app/work", got[0].Bottlenecks)
}
