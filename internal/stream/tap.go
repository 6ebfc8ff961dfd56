package stream

import (
	"sync"

	"grade10/internal/enginelog"
)

// Tap is a bounded in-process ingest buffer between an event producer (a
// simulation engine's logger tee) and a stream.Engine. It decouples the
// producer's hot path from attribution work: events are handed to a
// 4096-event channel and consumed by one goroutine. A full buffer applies
// backpressure — the producer waits, and ingest never loses an event.
type Tap struct {
	engine *Engine
	ch     chan enginelog.Event
	done   chan struct{}
	once   sync.Once
}

// NewTap starts a tap feeding e.
func NewTap(e *Engine) *Tap {
	t := &Tap{
		engine: e,
		ch:     make(chan enginelog.Event, 4096),
		done:   make(chan struct{}),
	}
	go t.run()
	return t
}

func (t *Tap) run() {
	for ev := range t.ch {
		t.engine.IngestEvent(ev)
	}
	close(t.done)
}

// Feed hands one event to the tap, waiting while the buffer is full. Safe
// for concurrent producers; must not be called after Close.
func (t *Tap) Feed(ev enginelog.Event) { t.ch <- ev }

// Func returns Feed as a plain function, shaped for enginelog.Logger.SetTee
// and the engines' Config.Tee hook.
func (t *Tap) Func() func(enginelog.Event) { return t.Feed }

// Close drains every buffered event into the engine and stops the tap.
// Idempotent; returns once the engine has seen everything fed before Close.
func (t *Tap) Close() {
	t.once.Do(func() { close(t.ch) })
	<-t.done
}
