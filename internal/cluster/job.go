package cluster

import (
	"fmt"

	"grade10/internal/enginelog"
	"grade10/internal/sim"
	"grade10/internal/vtime"
)

// JobSpec describes one simulated job to RunJob.
type JobSpec struct {
	// Name is the root phase's name: the program or job name.
	Name string
	// Machines and Machine size the cluster.
	Machines int
	Machine  MachineSpec
	// NoiseCores and NoiseSeed configure the OS noise (StartNoise); zero
	// cores disables it.
	NoiseCores float64
	NoiseSeed  int64
}

// Job is a simulated job in progress: the scheduler, machines and logger an
// engine's body drives.
type Job struct {
	Sched   *sim.Scheduler
	Cluster *Cluster
	Log     *enginelog.Logger
	// Root is the root phase path, "/" + JobSpec.Name.
	Root string
}

// Run is a finished simulated job.
type Run struct {
	// Log is the execution log Grade10 ingests.
	Log *enginelog.Log
	// Cluster holds ground-truth utilization for monitoring.
	Cluster *Cluster
	// Start and End bound the run in virtual time.
	Start, End vtime.Time
}

// RunJob is the job harness every simulated engine runs in. It builds the
// scheduler, the cluster and the logger, then runs body on the job's driver
// process inside the root phase, with the OS noise running alongside. The
// run ends when body returns and the root phase closes.
func RunJob(spec JobSpec, body func(j *Job, p *sim.Proc)) Run {
	sched := sim.NewScheduler()
	j := &Job{
		Sched:   sched,
		Cluster: New(sched, spec.Machines, spec.Machine),
		Log:     enginelog.NewLogger(sched.Now),
		Root:    "/" + spec.Name,
	}
	run := Run{Cluster: j.Cluster, Start: sched.Now()}
	sched.Spawn("driver", func(p *sim.Proc) {
		noise := StartNoise(j.Cluster, spec.NoiseSeed, spec.NoiseCores)
		defer noise.Stop()
		j.Log.StartPhase(j.Root, -1)
		body(j, p)
		j.Log.EndPhase(j.Root)
		run.End = sched.Now()
	})
	sched.Run()
	run.Log = j.Log.Log()
	return run
}

// FanOut runs one per-machine phase under the root, such as loading the
// input or writing the output: machine m's worker streams disk bytes from
// storage, then burns cpu core-seconds across threads. workOf gives each
// machine's (cpu, disk); p waits until every worker is done.
func (j *Job) FanOut(p *sim.Proc, name string, threads int, workOf func(m int) (cpu, disk float64)) {
	path := enginelog.Join(j.Root, name)
	j.Log.StartPhase(path, -1)
	n := j.Cluster.NumMachines()
	latch := sim.NewBarrier(n + 1)
	for m := 0; m < n; m++ {
		j.Sched.Spawn(fmt.Sprintf("%s-%d", name, m), func(wp *sim.Proc) {
			wPath := enginelog.JoinIndexed(path, "worker", m)
			j.Log.StartPhase(wPath, m)
			work, bytes := workOf(m)
			j.Cluster.ReadDisk(wp, m, bytes)
			j.Cluster.CPUs[m].Compute(wp, float64(threads), work)
			j.Log.EndPhase(wPath)
			latch.Wait(wp)
		})
	}
	latch.Wait(p)
	j.Log.EndPhase(path)
}
