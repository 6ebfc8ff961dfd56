package sim

import (
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// workEpsilon is the remaining-work threshold (in core-seconds) below which a
// CPU job is considered complete, absorbing floating-point residue from rate
// rebalancing.
const workEpsilon = 1e-9

// CPU is a processor-shared pool of cores on one simulated machine.
//
// Each job i declares a demand d_i in cores and an amount of work in
// core-seconds. While active, job i progresses at rate
//
//	r_i = d_i · min(1, Cores / Σ d_j)
//
// i.e. jobs get their full demand when the machine is underloaded and a
// proportional share when overloaded. Utilization (Σ r_i / Cores) is recorded
// into Util as a step function on every change — this is the ground truth the
// monitoring agent later averages over its sampling interval.
//
// Pause/Resume model stop-the-world events (the Giraph-like engine's GC):
// paused jobs make no progress, but jobs started with ComputeExempt continue
// (the collector's own threads).
type CPU struct {
	sched *Scheduler
	// Cores is the capacity of the pool.
	Cores float64
	// Util is the recorded utilization in [0, 1] as a fraction of Cores.
	Util metrics.Series

	// jobs is insertion-ordered: completion wakeups and rate summations
	// iterate it in Compute-call order, keeping same-instant event ordering
	// and floating-point accumulation deterministic (a map here would leak
	// runtime-random iteration order into the simulated schedule).
	jobs       []*cpuJob
	lastUpdate vtime.Time
	completion *Event
	pauseDepth int
}

type cpuJob struct {
	proc      *Proc
	demand    float64
	remaining float64 // core-seconds
	rate      float64 // cores, set by rebalance
	exempt    bool    // keeps running while the CPU is paused
}

// NewCPU creates a processor-sharing pool with the given number of cores.
func NewCPU(s *Scheduler, cores float64) *CPU {
	if cores <= 0 {
		panic("sim: CPU needs positive core count")
	}
	return &CPU{sched: s, Cores: cores}
}

// Compute runs `work` core-seconds for process p at a demand of `demand`
// cores, blocking p until the work completes under processor sharing.
func (c *CPU) Compute(p *Proc, demand, work float64) {
	c.compute(p, demand, work, false)
}

// ComputeExempt is Compute for jobs that keep running during Pause — used for
// the garbage collector itself, which consumes CPU while everything else on
// the machine is stopped.
func (c *CPU) ComputeExempt(p *Proc, demand, work float64) {
	c.compute(p, demand, work, true)
}

func (c *CPU) compute(p *Proc, demand, work float64, exempt bool) {
	if demand <= 0 || work <= 0 {
		return
	}
	j := &cpuJob{proc: p, demand: demand, remaining: work, exempt: exempt}
	c.jobs = append(c.jobs, j)
	c.rebalance()
	p.park() // woken by the completion event once remaining hits zero
}

// Pause stops all non-exempt jobs. Pauses nest; each Pause needs a matching
// Resume.
func (c *CPU) Pause() {
	c.pauseDepth++
	if c.pauseDepth == 1 {
		c.rebalance()
	}
}

// Resume undoes one Pause.
func (c *CPU) Resume() {
	if c.pauseDepth == 0 {
		panic("sim: CPU Resume without Pause")
	}
	c.pauseDepth--
	if c.pauseDepth == 0 {
		c.rebalance()
	}
}

func (c *CPU) eligible(j *cpuJob) bool {
	return c.pauseDepth == 0 || j.exempt
}

// advance credits progress to all jobs for the time elapsed since the last
// rate change.
func (c *CPU) advance() {
	now := c.sched.Now()
	elapsed := now.Sub(c.lastUpdate).Seconds()
	if elapsed > 0 {
		for _, j := range c.jobs {
			j.remaining -= j.rate * elapsed
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
	}
	c.lastUpdate = now
}

// rebalance recomputes rates after any membership or pause change, records
// utilization, completes finished jobs, and schedules the next completion.
func (c *CPU) rebalance() {
	c.advance()

	// Complete jobs whose work is done; their processes resume at this
	// instant, woken in Compute-call order so same-time completions keep a
	// deterministic event sequence.
	var finished []*cpuJob
	survivors := c.jobs[:0]
	for _, j := range c.jobs {
		if j.remaining <= workEpsilon {
			finished = append(finished, j)
		} else {
			survivors = append(survivors, j)
		}
	}
	for i := len(survivors); i < len(c.jobs); i++ {
		c.jobs[i] = nil
	}
	c.jobs = survivors
	for _, j := range finished {
		j.proc.wake()
	}

	// Proportional-share rates for the survivors.
	totalDemand := 0.0
	for _, j := range c.jobs {
		if c.eligible(j) {
			totalDemand += j.demand
		}
	}
	share := 1.0
	if totalDemand > c.Cores {
		share = c.Cores / totalDemand
	}
	used := 0.0
	next := vtime.Infinity
	now := c.sched.Now()
	for _, j := range c.jobs {
		if c.eligible(j) {
			j.rate = j.demand * share
			used += j.rate
			dt := vtime.FromSeconds(j.remaining / j.rate)
			if dt < 1 {
				dt = 1 // round completion up to the nanosecond grid
			}
			if t := now.Add(dt); t < next {
				next = t
			}
		} else {
			j.rate = 0
		}
	}
	c.Util.Set(now, used/c.Cores)

	c.completion.Cancel()
	c.completion = nil
	if next < vtime.Infinity {
		c.completion = c.sched.At(next, c.rebalance)
	}
}
