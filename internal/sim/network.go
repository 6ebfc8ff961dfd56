package sim

import (
	"fmt"

	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// bytesEpsilon is the remaining-bytes threshold below which a flow is
// considered complete.
const bytesEpsilon = 1e-6

// Network models per-machine full-duplex NICs with fair sharing.
//
// A flow from machine a to machine b receives
//
//	rate = min(egressCap(a) / egressFlows(a), ingressCap(b) / ingressFlows(b))
//
// an equal-share approximation of max-min fairness that is accurate for the
// regular all-to-all exchange patterns of distributed graph processing.
// Per-machine egress and ingress utilization are recorded as step functions,
// providing the ground truth for network monitoring.
type Network struct {
	sched *Scheduler
	nodes []*nic

	// flows is insertion-ordered: completion wakeups and utilization
	// summations iterate it in Transfer-call order, keeping same-instant
	// event ordering and floating-point accumulation deterministic (a map
	// here would leak runtime-random iteration order into the schedule).
	flows      []*flow
	lastUpdate vtime.Time
	completion *Event
}

type nic struct {
	egressCap  float64 // bytes/second
	ingressCap float64
	// EgressUtil/IngressUtil in [0,1] as fraction of capacity.
	egressUtil  metrics.Series
	ingressUtil metrics.Series
}

type flow struct {
	from, to  int
	remaining float64 // bytes
	rate      float64 // bytes/second
	proc      *Proc   // the process blocked in Transfer
}

// NewNetwork creates a network of n machines, each with the given symmetric
// NIC bandwidth in bytes per second.
func NewNetwork(s *Scheduler, n int, bandwidth float64) *Network {
	if n <= 0 || bandwidth <= 0 {
		panic("sim: network needs machines and positive bandwidth")
	}
	net := &Network{sched: s}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, &nic{egressCap: bandwidth, ingressCap: bandwidth})
	}
	return net
}

// EgressUtil returns the recorded egress utilization series of machine m.
func (n *Network) EgressUtil(m int) *metrics.Series { return &n.nodes[m].egressUtil }

// IngressUtil returns the recorded ingress utilization series of machine m.
func (n *Network) IngressUtil(m int) *metrics.Series { return &n.nodes[m].ingressUtil }

// Transfer moves `bytes` from machine `from` to machine `to`, blocking p
// until the transfer completes. A transfer between a machine and itself is
// free: local messages never touch the NIC.
func (n *Network) Transfer(p *Proc, from, to int, bytes float64) {
	if from == to || bytes <= 0 {
		return
	}
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		panic(fmt.Sprintf("sim: transfer between unknown machines %d→%d", from, to))
	}
	n.flows = append(n.flows, &flow{from: from, to: to, remaining: bytes, proc: p})
	n.rebalance()
	p.park() // woken by rebalance once the flow completes
}

func (n *Network) advance() {
	now := n.sched.Now()
	elapsed := now.Sub(n.lastUpdate).Seconds()
	if elapsed > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * elapsed
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.lastUpdate = now
}

func (n *Network) rebalance() {
	n.advance()

	// Complete finished flows; their processes wake at the end of rebalance
	// in Transfer-call order so same-time completions keep a deterministic
	// event sequence.
	var finished []*flow
	survivors := n.flows[:0]
	for _, f := range n.flows {
		if f.remaining <= bytesEpsilon {
			finished = append(finished, f)
		} else {
			survivors = append(survivors, f)
		}
	}
	for i := len(survivors); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = survivors

	// Equal-share rates.
	egCount := make([]int, len(n.nodes))
	inCount := make([]int, len(n.nodes))
	for _, f := range n.flows {
		egCount[f.from]++
		inCount[f.to]++
	}
	egUsed := make([]float64, len(n.nodes))
	inUsed := make([]float64, len(n.nodes))
	now := n.sched.Now()
	next := vtime.Infinity
	for _, f := range n.flows {
		eg := n.nodes[f.from].egressCap / float64(egCount[f.from])
		in := n.nodes[f.to].ingressCap / float64(inCount[f.to])
		f.rate = eg
		if in < eg {
			f.rate = in
		}
		egUsed[f.from] += f.rate
		inUsed[f.to] += f.rate
		dt := vtime.FromSeconds(f.remaining / f.rate)
		if dt < 1 {
			dt = 1
		}
		if t := now.Add(dt); t < next {
			next = t
		}
	}
	for i, nd := range n.nodes {
		nd.egressUtil.Set(now, egUsed[i]/nd.egressCap)
		nd.ingressUtil.Set(now, inUsed[i]/nd.ingressCap)
	}

	n.completion.Cancel()
	n.completion = nil
	if next < vtime.Infinity {
		n.completion = n.sched.At(next, n.rebalance)
	}

	for _, f := range finished {
		f.proc.wake()
	}
}
