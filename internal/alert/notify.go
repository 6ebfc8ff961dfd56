package alert

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"
)

// Webhook delivery bounds.
const (
	// maxAttempts bounds delivery attempts per batch.
	maxAttempts = 4
	// backoff is the first retry delay, doubling per attempt.
	backoff = 500 * time.Millisecond
	// queueDepth bounds pending batches; overflow is dropped and logged.
	queueDepth = 64
)

// NotifierOptions tunes the webhook notifier. The clock and sleeper are
// injectable so the retry/backoff schedule is testable without waiting.
type NotifierOptions struct {
	// Now stamps payloads; Sleep waits between attempts. Defaults: time.Now,
	// time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
	// Logger reports delivery failures and dropped batches; nil discards.
	Logger *slog.Logger
}

// Notifier delivers alert transition batches to a webhook URL as JSON, with
// bounded retry and exponential backoff. Notify never blocks the caller: the
// alert path runs under the engine lock, so delivery happens on a background
// goroutine and overflow is shed, not waited on.
type Notifier struct {
	url    string
	opts   NotifierOptions
	client *http.Client

	ch   chan []Event
	done chan struct{}
}

// webhookPayload is the POST body: one batch of lifecycle transitions.
type webhookPayload struct {
	Version string  `json:"version"`
	SentAt  string  `json:"sent_at"`
	Alerts  []Event `json:"alerts"`
}

// NewNotifier starts a notifier delivering to url.
func NewNotifier(url string, opts NotifierOptions) *Notifier {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	n := &Notifier{
		url:    url,
		opts:   opts,
		client: &http.Client{Timeout: 10 * time.Second},
		ch:     make(chan []Event, queueDepth),
		done:   make(chan struct{}),
	}
	go n.run()
	return n
}

// Notify enqueues one transition batch; a full queue drops it (logged).
func (n *Notifier) Notify(events []Event) {
	if n == nil || len(events) == 0 {
		return
	}
	select {
	case n.ch <- events:
	default:
		if n.opts.Logger != nil {
			n.opts.Logger.Warn("alert webhook queue full, batch dropped",
				"url", n.url, "events", len(events))
		}
	}
}

// Close stops the notifier after delivering everything already queued.
func (n *Notifier) Close() {
	if n == nil {
		return
	}
	close(n.ch)
	<-n.done
}

func (n *Notifier) run() {
	defer close(n.done)
	for batch := range n.ch {
		if !n.deliver(batch) && n.opts.Logger != nil {
			n.opts.Logger.Warn("alert webhook delivery failed",
				"url", n.url, "events", len(batch), "attempts", maxAttempts)
		}
	}
}

// deliver posts one batch, retrying with exponential backoff. Any 2xx
// response is success.
func (n *Notifier) deliver(batch []Event) bool {
	payload, err := json.Marshal(webhookPayload{
		Version: "1",
		SentAt:  n.opts.Now().UTC().Format(time.RFC3339Nano),
		Alerts:  batch,
	})
	if err != nil {
		return false
	}
	delay := backoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			n.opts.Sleep(delay)
			delay *= 2
		}
		resp, err := n.client.Post(n.url, "application/json", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true
		}
	}
	return false
}
