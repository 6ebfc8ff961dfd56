package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"grade10/internal/metrics"
)

// GlobalMachine is the machine index of a cluster-global resource instance.
const GlobalMachine = -1

// ResourceInstance is one monitored instance of a consumable resource: a
// (resource, machine) pair, or (resource, GlobalMachine) for cluster-global
// resources. Samples hold the coarse monitoring records to be upsampled.
type ResourceInstance struct {
	Resource *Resource
	Machine  int
	Samples  *metrics.SampleSeries
	key      string
}

// InstanceKey formats the stable identifier of a resource instance, like
// "cpu@2" or "lock@global".
func InstanceKey(resource string, machine int) string {
	if machine == GlobalMachine {
		return resource + "@global"
	}
	return resource + "@" + strconv.Itoa(machine)
}

// ParseInstanceKey splits an InstanceKey back into resource name and machine
// at its last '@'. ok is false when key has no '@', an empty resource, or a
// machine that is neither "global" nor a non-negative integer.
func ParseInstanceKey(key string) (resource string, machine int, ok bool) {
	i := strings.LastIndexByte(key, '@')
	if i <= 0 {
		return "", 0, false
	}
	resource, m := key[:i], key[i+1:]
	if m == "global" {
		return resource, GlobalMachine, true
	}
	machine, err := strconv.Atoi(m)
	if err != nil || machine < 0 {
		return "", 0, false
	}
	return resource, machine, true
}

// Key returns the instance's InstanceKey, formatted once when it was added.
func (ri *ResourceInstance) Key() string { return ri.key }

// instanceID identifies a resource instance without formatting its key.
type instanceID struct {
	resource string
	machine  int
}

// ResourceTrace is the set of monitored consumable resource instances for
// one execution (§III-C). Blocking resources do not appear here: their data
// arrives as blocking events inside the execution trace.
type ResourceTrace struct {
	instances []*ResourceInstance // in key order
	byID      map[instanceID]*ResourceInstance
}

// NewResourceTrace creates an empty trace.
func NewResourceTrace() *ResourceTrace {
	return &ResourceTrace{byID: map[instanceID]*ResourceInstance{}}
}

// Add registers monitoring samples for a resource instance. Duplicate
// instances and blocking resources are rejected.
func (rt *ResourceTrace) Add(res *Resource, machine int, samples *metrics.SampleSeries) error {
	if res.Kind != Consumable {
		return fmt.Errorf("core: resource trace holds consumables only, got %q (%v)", res.Name, res.Kind)
	}
	if !res.PerMachine && machine != GlobalMachine {
		return fmt.Errorf("core: global resource %q bound to machine %d", res.Name, machine)
	}
	if res.PerMachine && machine < 0 {
		return fmt.Errorf("core: per-machine resource %q without machine", res.Name)
	}
	if err := samples.Validate(); err != nil {
		return fmt.Errorf("core: resource %q machine %d: %v", res.Name, machine, err)
	}
	id, key := instanceID{res.Name, machine}, InstanceKey(res.Name, machine)
	if _, dup := rt.byID[id]; dup {
		return fmt.Errorf("core: duplicate resource instance %s", key)
	}
	ri := &ResourceInstance{Resource: res, Machine: machine, Samples: samples, key: key}
	at := sort.Search(len(rt.instances), func(i int) bool { return rt.instances[i].key > ri.key })
	rt.instances = slices.Insert(rt.instances, at, ri)
	rt.byID[id] = ri
	return nil
}

// Instances returns the instances sorted by key for deterministic iteration.
// The slice is the trace's own: callers must not modify it.
func (rt *ResourceTrace) Instances() []*ResourceInstance { return rt.instances }

// Get resolves an instance by resource name and machine, or nil.
func (rt *ResourceTrace) Get(name string, machine int) *ResourceInstance {
	return rt.byID[instanceID{name, machine}]
}
