package attribution

import (
	"testing"

	"grade10/internal/obs"
)

// TestAttributeTracedBitIdentical: enabling the self-tracer must not change
// the attribution result, and the tracer must see one span per instance job
// plus its inner upsampling step, each tagged with the attributed window.
func TestAttributeTracedBitIdentical(t *testing.T) {
	f := buildFig2(t)
	plain, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	traced, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 2, tracer)
	if err != nil {
		t.Fatal(err)
	}
	equalProfiles(t, plain, traced)

	spans := tracer.Spans()
	byStage := map[string]int{}
	for _, s := range spans {
		byStage[s.Stage]++
		if s.Stage == "attribute-instance" {
			if !s.HasWindow || s.VStartNS != int64(f.slices.Start) || s.VEndNS != int64(f.slices.End) {
				t.Errorf("instance span missing window: %+v", s)
			}
			if s.Detail == "" {
				t.Errorf("instance span missing detail: %+v", s)
			}
		}
	}
	n := len(f.rt.Instances())
	if byStage["attribute-instance"] != n {
		t.Errorf("got %d attribute-instance spans, want %d", byStage["attribute-instance"], n)
	}
	if byStage["upsample"] != n {
		t.Errorf("got %d upsample spans, want %d", byStage["upsample"], n)
	}
}

// TestAttributionSpanCallsZeroAllocDisabled pins the zero-allocation contract
// of the disabled tracing path: the exact span call sequence the attribution
// fan-out executes per instance must not allocate when the tracer is nil.
func TestAttributionSpanCallsZeroAllocDisabled(t *testing.T) {
	f := buildFig2(t)
	ri := f.rt.Instances()[0]
	var tracer *obs.Tracer
	allocs := testing.AllocsPerRun(500, func() {
		span := tracer.StartSpan("attribute-instance", 0)
		if tracer.Enabled() {
			span.SetDetail(ri.Key())
			span.SetItems(int64(f.slices.Count))
			span.SetWindow(int64(f.slices.Start), int64(f.slices.End))
		}
		uspan := tracer.StartSpan("upsample", 0)
		if tracer.Enabled() {
			uspan.SetDetail(ri.Key())
			uspan.SetItems(int64(len(ri.Samples.Samples)))
		}
		uspan.End()
		span.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v per instance job, want 0", allocs)
	}
}

// BenchmarkAttributeTracingDisabled / ...Enabled guard the hot-path cost of
// instrumentation: compare allocs/op of the two to see the tracing overhead
// (the disabled variant must match the pre-instrumentation baseline).
func BenchmarkAttributeTracingDisabled(b *testing.B) {
	f := buildFig2(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttributeTracingEnabled(b *testing.B) {
	f := buildFig2(b)
	tracer := obs.NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 1, tracer); err != nil {
			b.Fatal(err)
		}
	}
}
