package sim

import (
	"fmt"

	"grade10/internal/vtime"
)

// Proc is a simulation process: a goroutine whose execution is interleaved
// deterministically with the event loop. Exactly one process (or the event
// loop) runs at a time; a process gives up control by parking on a primitive
// (Sleep, CPU.Compute, Queue.Put, Barrier.Wait, ...) and is resumed by a
// scheduled event.
type Proc struct {
	sched    *Scheduler
	name     string
	resume   chan struct{} // scheduler → process: continue
	yield    chan struct{} // process → scheduler: I parked or finished
	parked   bool
	done     bool
	panicVal any // panic from the process body, re-raised in scheduler context
}

// Spawn starts a new process at the current virtual instant. The process body
// runs when the scheduler reaches the spawn event; Spawn itself returns
// immediately.
func (s *Scheduler) Spawn(name string, body func(*Proc)) *Proc {
	return s.SpawnAt(s.now, name, body)
}

// SpawnAt starts a new process at virtual instant t.
func (s *Scheduler) SpawnAt(t vtime.Time, name string, body func(*Proc)) *Proc {
	p := &Proc{
		sched:  s,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	s.procs[p] = struct{}{}
	s.At(t, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p.panicVal = r
					p.done = true
					delete(s.procs, p)
					p.yield <- struct{}{}
				}
			}()
			body(p)
			p.done = true
			delete(s.procs, p)
			p.yield <- struct{}{}
		}()
		<-p.yield // run the body until it parks or finishes
		p.repanic()
	})
	return p
}

// repanic re-raises a panic that escaped the process body, so that failures
// inside simulated engines surface on the goroutine driving the scheduler.
func (p *Proc) repanic() {
	if p.panicVal != nil {
		r := p.panicVal
		p.panicVal = nil
		panic(r)
	}
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() vtime.Time { return p.sched.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// park suspends the process until unpark is called from the event loop.
// Must be called from the process's own goroutine.
func (p *Proc) park() {
	p.parked = true
	p.yield <- struct{}{}
	<-p.resume
	p.parked = false
}

// unpark resumes a parked process and runs it until it parks again or
// finishes. Must be called from scheduler (event) context, never from
// another process directly — use wake for that.
func (p *Proc) unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: unpark of non-parked process %q", p.name))
	}
	p.resume <- struct{}{}
	<-p.yield
	p.repanic()
}

// wake schedules the process to be resumed at the current instant. It is safe
// to call from any context (event loop or another process). The process must
// be parked, or must park before the wake event fires.
func (p *Proc) wake() {
	p.sched.At(p.sched.Now(), p.unpark)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d vtime.Duration) {
	if d <= 0 {
		return
	}
	p.sched.After(d, p.unpark)
	p.park()
}
