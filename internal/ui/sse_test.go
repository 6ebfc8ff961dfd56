package ui_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grade10/internal/alert"
	"grade10/internal/obs"
	"grade10/internal/race"
	"grade10/internal/stream"
	"grade10/internal/ui"
)

// sseClient subscribes over a real HTTP connection and hands back frames
// (event name + data line) as they arrive.
type sseClient struct {
	cancel context.CancelFunc
	frames chan [2]string
	done   chan struct{}
}

func subscribe(t *testing.T, url string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("subscribe: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content type %q", ct)
	}
	c := &sseClient{cancel: cancel, frames: make(chan [2]string, 64), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20) // frames can be large
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				c.frames <- [2]string{event, strings.TrimPrefix(line, "data: ")}
			}
		}
	}()
	return c
}

func (c *sseClient) next(t *testing.T, want string) string {
	t.Helper()
	select {
	case fr := <-c.frames:
		if fr[0] != want {
			t.Fatalf("got event %q (%s), want %q", fr[0], fr[1], want)
		}
		return fr[1]
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %q frame", want)
		return ""
	}
}

// TestSSEWindowFrames: every subscriber gets the hello frame on connect and
// exactly one well-formed `event: window` frame per flush, then `event:
// final` when the engine finalizes.
func TestSSEWindowFrames(t *testing.T) {
	broker := ui.NewBroker(0)
	s := ui.NewServer(ui.Config{Broker: broker})
	ts := httptest.NewServer(s)
	defer ts.Close()

	a := subscribe(t, ts.URL+"/api/events")
	defer a.cancel()
	b := subscribe(t, ts.URL+"/api/events")
	defer b.cancel()
	a.next(t, "hello")
	b.next(t, "hello")

	broker.OnWindowFlush(&stream.WindowResult{Index: 3, StartSeconds: 1, EndSeconds: 2})
	for _, c := range []*sseClient{a, b} {
		data := c.next(t, "window")
		if !strings.Contains(data, `"index": 3`) && !strings.Contains(data, `"index":3`) {
			t.Fatalf("window frame data = %s", data)
		}
		if strings.Contains(data, "\n") {
			t.Fatal("frame data not single-line")
		}
	}

	broker.OnWindowFlush(nil) // finalize signal
	a.next(t, "final")
	b.next(t, "final")

	// No extra frames: one per flush per subscriber.
	select {
	case fr := <-a.frames:
		t.Fatalf("unexpected extra frame %v", fr)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSSENoSubscriberNoEncode: with nobody subscribed a window flush costs
// no encoding, so it allocates nothing.
func TestSSENoSubscriberNoEncode(t *testing.T) {
	if race.Enabled {
		t.Skip("race mode adds allocations; alloc counts are nondeterministic")
	}
	broker := ui.NewBroker(0)
	wr := &stream.WindowResult{Index: 3, StartSeconds: 1, EndSeconds: 2,
		Instances:   []stream.WindowInstance{{Key: "cpu@0", Capacity: 4, Utilization: 1}},
		Bottlenecks: []stream.WindowBottleneck{{Path: "/job/a", TypePath: "/job/a", Resource: "cpu", Kind: "saturation", Seconds: 1}},
	}
	if allocs := testing.AllocsPerRun(100, func() { broker.OnWindowFlush(wr) }); allocs != 0 {
		t.Fatalf("OnWindowFlush with no subscriber allocated %v per run, want 0", allocs)
	}
}

// TestSSEAlertFrames: alert lifecycle transitions publish as `event: alert`
// frames carrying the event batch as a JSON array.
func TestSSEAlertFrames(t *testing.T) {
	broker := ui.NewBroker(0)
	rules, err := alert.ParseRules(strings.NewReader("alert hot severity critical when coverage < 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	ev := alert.NewEvaluator(rules, nil)
	s := ui.NewServer(ui.Config{Broker: broker})
	ts := httptest.NewServer(s)
	defer ts.Close()

	c := subscribe(t, ts.URL+"/api/events")
	defer c.cancel()
	c.next(t, "hello")

	// Empty batches are not published.
	broker.PublishAlerts(nil)
	evs := ev.Eval(alert.Obs{Tick: 1, Scalars: map[string]float64{"coverage": 0.2}})
	if len(evs) != 1 {
		t.Fatalf("transitions = %+v, want one firing", evs)
	}
	broker.PublishAlerts(evs)

	data := c.next(t, "alert")
	if strings.Contains(data, "\n") {
		t.Fatal("alert frame data not single-line")
	}
	var got []alert.Event
	if err := json.Unmarshal([]byte(data), &got); err != nil {
		t.Fatalf("alert frame not JSON: %v\n%s", err, data)
	}
	if len(got) != 1 || got[0].Rule != "hot" || got[0].To != alert.StateFiring {
		t.Fatalf("alert frame = %+v", got)
	}

}

// TestSSESlowSubscriberDropped: a subscriber that stops reading must be
// disconnected once its bounded queue fills — publishing never blocks and
// the drop is counted on grade10_ui_sse_dropped_total, while a healthy
// subscriber keeps receiving.
func TestSSESlowSubscriberDropped(t *testing.T) {
	reg := obs.NewRegistry()
	broker := ui.NewBroker(2) // tiny queue so the test overflows it fast
	broker.RegisterMetrics(reg)
	s := ui.NewServer(ui.Config{Broker: broker})
	ts := httptest.NewServer(s)
	defer ts.Close()

	slowCtx, slowCancel := context.WithCancel(context.Background())
	defer slowCancel()
	req, _ := http.NewRequestWithContext(slowCtx, "GET", ts.URL+"/api/events", nil)
	slowResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer slowResp.Body.Close()
	// Read only the hello frame, then stop draining: the subscriber's queue
	// (2) plus any transport buffer is finite, so publishes overflow it.
	hello := make([]byte, 64)
	if _, err := slowResp.Body.Read(hello); err != nil {
		t.Fatal(err)
	}

	healthy := subscribe(t, ts.URL+"/api/events")
	defer healthy.cancel()
	healthy.next(t, "hello")

	// Publish from the "flush path": must return promptly even though the
	// slow subscriber never drains. Large frames fill the slow connection's
	// transport buffers, wedging its writer; the bounded queue (2) then
	// overflows and the broker drops it instead of blocking.
	// Each publish must return promptly even though the slow subscriber
	// never drains: its large frames fill the connection's transport
	// buffers, wedging its writer; the bounded queue (2) then overflows and
	// the broker drops it instead of blocking the flush path. The healthy
	// subscriber is drained between publishes and must see every frame.
	const frames = 20
	big := &stream.WindowResult{Instances: make([]stream.WindowInstance, 2000)}
	for i := 0; i < frames; i++ {
		big.Index = i
		start := time.Now()
		broker.OnWindowFlush(big)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("publish %d blocked for %v on a slow subscriber", i, d)
		}
		healthy.next(t, "window")
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "grade10_ui_sse_dropped_total 1") {
		t.Fatalf("expected one dropped subscriber on /metrics, got:\n%s",
			grepLines(text, "sse"))
	}
	if !strings.Contains(text, "grade10_ui_sse_subscribers") {
		t.Fatal("subscriber gauge missing from registry")
	}
}

// subscriberGauge scrapes grade10_ui_sse_subscribers from the registry.
func subscriberGauge(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "grade10_ui_sse_subscribers ") {
			var v float64
			if _, err := fmt.Sscanf(line, "grade10_ui_sse_subscribers %g", &v); err != nil {
				t.Fatalf("parse gauge line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatal("grade10_ui_sse_subscribers missing from scrape")
	return 0
}

// waitGauge polls the subscriber gauge until it reaches want (disconnect
// cleanup runs on the handler goroutine, so decrements are asynchronous).
func waitGauge(t *testing.T, reg *obs.Registry, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := subscriberGauge(t, reg); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("subscriber gauge = %g, want %g", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSSESubscriberGaugePaths: grade10_ui_sse_subscribers must decrement on
// every disconnect path — client close, slow-subscriber drop, and broker
// shutdown — so the gauge can never leak upward on a long-lived server.
func TestSSESubscriberGaugePaths(t *testing.T) {
	reg := obs.NewRegistry()
	broker := ui.NewBroker(2) // tiny queue so the slow-drop path triggers fast
	broker.RegisterMetrics(reg)
	s := ui.NewServer(ui.Config{Broker: broker})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two healthy subscribers plus one that will go slow.
	a := subscribe(t, ts.URL+"/api/events")
	defer a.cancel()
	b := subscribe(t, ts.URL+"/api/events")
	defer b.cancel()
	a.next(t, "hello")
	b.next(t, "hello")

	slowCtx, slowCancel := context.WithCancel(context.Background())
	defer slowCancel()
	req, _ := http.NewRequestWithContext(slowCtx, "GET", ts.URL+"/api/events", nil)
	slowResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer slowResp.Body.Close()
	hello := make([]byte, 64)
	if _, err := slowResp.Body.Read(hello); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, reg, 3)

	// Path 1 — client close: cancelling the request context ends the stream
	// and the handler's deferred cancel deregisters the queue.
	a.cancel()
	waitGauge(t, reg, 2)

	// Path 2 — slow-subscriber drop: the slow client stops draining, so big
	// frames overflow its bounded queue and the broker disconnects it.
	big := &stream.WindowResult{Instances: make([]stream.WindowInstance, 2000)}
	for i := 0; i < 20; i++ {
		big.Index = i
		broker.OnWindowFlush(big)
		b.next(t, "window")
		if subscriberGauge(t, reg) == 1 {
			break
		}
	}
	waitGauge(t, reg, 1)

	// Path 3 — broker shutdown: every remaining subscriber is disconnected.
	broker.Shutdown()
	waitGauge(t, reg, 0)

	// The broker stays usable after Shutdown: a fresh subscriber is counted.
	c := subscribe(t, ts.URL+"/api/events")
	defer c.cancel()
	c.next(t, "hello")
	waitGauge(t, reg, 1)
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
