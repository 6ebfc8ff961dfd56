package stream

import (
	"sync"

	"grade10/internal/enginelog"
)

// TapPolicy selects what a full tap buffer does to the producer.
type TapPolicy int

const (
	// BlockWhenFull applies backpressure: the producer waits for space.
	// Ingest never loses events; a slow consumer slows the engine.
	BlockWhenFull TapPolicy = iota
	// DropWhenFull sheds events when the buffer is full, counting them in
	// the engine's DroppedEvents. The live profile degrades (counted), the
	// producer never stalls.
	DropWhenFull
)

// Tap is a bounded in-process ingest buffer between an event producer (a
// simulation engine's logger tee) and a stream.Engine. It decouples the
// producer's hot path from attribution work: events are handed to a channel
// and consumed by one goroutine.
type Tap struct {
	engine *Engine
	ch     chan enginelog.Event
	policy TapPolicy
	done   chan struct{}
	once   sync.Once
}

// NewTap starts a tap with the given buffer size (default 4096).
func NewTap(e *Engine, buffer int, policy TapPolicy) *Tap {
	if buffer <= 0 {
		buffer = 4096
	}
	t := &Tap{
		engine: e,
		ch:     make(chan enginelog.Event, buffer),
		policy: policy,
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

// Feed hands one event to the tap. Safe for concurrent producers; must not
// be called after Close.
func (t *Tap) Feed(ev enginelog.Event) {
	if t.policy == DropWhenFull {
		select {
		case t.ch <- ev:
		default:
			t.engine.CountDropped(1)
		}
		return
	}
	t.ch <- ev
}

// Func returns Feed as a plain function, shaped for enginelog.Logger.SetTee
// and the engines' Config.Tee hook.
func (t *Tap) Func() func(enginelog.Event) { return t.Feed }

// Close drains every buffered event into the engine and stops the tap.
// Idempotent; returns once the engine has seen everything fed before Close.
func (t *Tap) Close() {
	t.once.Do(func() { close(t.ch) })
	<-t.done
}
