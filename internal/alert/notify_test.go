package alert

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestNotifierRetryBackoff: delivery retries failed posts on an exponential
// schedule read from the injected fake clock/sleeper, then succeeds.
func TestNotifierRetryBackoff(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body)
	}))
	defer srv.Close()

	var slept []time.Duration
	var logs bytes.Buffer
	fakeNow := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	n := NewNotifier(srv.URL, NotifierOptions{
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		Now:    func() time.Time { return fakeNow },
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	n.Notify([]Event{{Rule: "hot", From: StatePending, To: StateFiring, Severity: SeverityCritical}})
	n.Close()

	mu.Lock()
	defer mu.Unlock()
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures, one success)", attempts)
	}
	if len(slept) != 2 || slept[0] != backoff || slept[1] != 2*backoff {
		t.Fatalf("backoff schedule = %v, want [%v %v]", slept, backoff, 2*backoff)
	}
	// Close waited for the delivery goroutine, so logs is quiescent.
	if len(bodies) != 1 || logs.Len() != 0 {
		t.Fatalf("delivered %d batches, logged %q; want one sent, none failed or dropped", len(bodies), logs.String())
	}

	var payload webhookPayload
	if err := json.Unmarshal(bodies[0], &payload); err != nil {
		t.Fatalf("payload: %v\n%s", err, bodies[0])
	}
	if payload.Version != "1" || payload.SentAt != "2026-08-08T12:00:00Z" {
		t.Errorf("payload header = %+v", payload)
	}
	if len(payload.Alerts) != 1 || payload.Alerts[0].Rule != "hot" || payload.Alerts[0].To != StateFiring {
		t.Errorf("payload alerts = %+v", payload.Alerts)
	}
}

// TestNotifierGivesUp: a webhook that never succeeds consumes exactly
// maxAttempts tries and logs one failure.
func TestNotifierGivesUp(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	var logs bytes.Buffer
	n := NewNotifier(srv.URL, NotifierOptions{
		Sleep:  func(time.Duration) {},
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	n.Notify([]Event{{Rule: "x"}})
	n.Close()

	mu.Lock()
	defer mu.Unlock()
	if attempts != maxAttempts {
		t.Fatalf("attempts = %d, want %d", attempts, maxAttempts)
	}
	if got := bytes.Count(logs.Bytes(), []byte("delivery failed")); got != 1 {
		t.Fatalf("logged %d delivery failures, want 1:\n%s", got, logs.String())
	}
}

// TestNotifierQueueOverflow: a stuffed queue sheds batches without blocking,
// logging each one it drops.
func TestNotifierQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()

	var logs bytes.Buffer
	n := NewNotifier(srv.URL, NotifierOptions{Sleep: func(time.Duration) {},
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	// At most one in flight and queueDepth queued, the rest shed.
	for i := 0; i < queueDepth+3; i++ {
		n.Notify([]Event{{Rule: "x", Tick: i}})
	}
	close(release)
	n.Close()
	if got := bytes.Count(logs.Bytes(), []byte("batch dropped")); got < 2 {
		t.Fatalf("logged %d dropped batches, want at least 2:\n%s", got, logs.String())
	}
}
