// Package core implements Grade10's modeling layer (§III-B of the paper):
// the execution model describing how a framework runs a workload as a
// hierarchical DAG of phase types, the resource model describing consumable
// and blocking resources, and the attribution rules (None/Exact/Variable)
// linking phase types to resource demand. It also builds the two traces the
// characterization pipeline consumes: the execution trace parsed from engine
// logs, and the resource trace assembled from monitoring samples.
package core

import (
	"fmt"
	"sort"
	"strings"

	"grade10/internal/enginelog"
)

// PhaseType is a node in the execution model: one kind of logical operation
// performed by the framework. Children decompose a phase into lower-level
// phases; After edges order siblings into a DAG (siblings without a path
// between them may run concurrently).
type PhaseType struct {
	// Name is the path segment for this type, e.g. "superstep".
	Name string
	// Repeated marks types whose instances carry indices (superstep.0,
	// superstep.1, ...).
	Repeated bool
	// Sequential marks repeated types whose instances execute in index order
	// (supersteps, iterations), as opposed to concurrently (workers,
	// threads). The replay simulator serializes sequential instances, and
	// imbalance analysis groups concurrent phases under their nearest
	// sequential ancestor.
	Sequential bool
	// SyncGroup marks types whose concurrent instances synchronize: all
	// instances under the same sequential ancestor end together (barriers,
	// exchange phases ending in a cluster-wide wait). The replay simulator
	// strips their recorded wait time and re-derives it from the slowest
	// member, which is what lets hypothetical fixes (balancing, bottleneck
	// removal) shorten cross-worker waits.
	SyncGroup bool
	// ElasticWaits marks types whose recorded blocking time is a consequence
	// of other phases rather than intrinsic work — e.g. a communication
	// drain idling while producers compute. The replay simulator strips
	// those waits from the phase's duration (SyncGroup implies this).
	ElasticWaits bool
	// After lists sibling type names that must complete before this type
	// starts; the replay simulator enforces these precedence edges.
	After []string

	parent   *PhaseType
	children []*PhaseType
	byName   map[string]*PhaseType
	path     string // computed once at construction; Path() is on hot rule-lookup paths
}

// NewRootType creates the root phase type of an execution model, typically
// named after the job kind (e.g. "pagerank" or "app").
func NewRootType(name string) *PhaseType {
	validateSegment(name)
	return &PhaseType{Name: name, byName: map[string]*PhaseType{}, path: "/" + name}
}

func validateSegment(name string) {
	if name == "" || strings.ContainsAny(name, "/. \t\n") {
		panic(fmt.Sprintf("core: invalid phase type name %q", name))
	}
}

// Child adds (or returns an existing) child phase type. The variadic after
// list declares precedence on sibling names; it accumulates across calls.
func (t *PhaseType) Child(name string, repeated bool, after ...string) *PhaseType {
	validateSegment(name)
	if c, ok := t.byName[name]; ok {
		c.After = append(c.After, after...)
		return c
	}
	c := &PhaseType{Name: name, Repeated: repeated, After: after,
		parent: t, byName: map[string]*PhaseType{}, path: t.Path() + "/" + name}
	t.children = append(t.children, c)
	t.byName[name] = c
	return c
}

// child returns the child type with the given name, or nil.
func (t *PhaseType) child(name string) *PhaseType { return t.byName[name] }

// Children returns the child types in declaration order.
func (t *PhaseType) Children() []*PhaseType { return t.children }

// IsLeaf reports whether the type has no children.
func (t *PhaseType) IsLeaf() bool { return len(t.children) == 0 }

// Path returns the type path, e.g. "/pagerank/execute/superstep". The path
// is cached at construction (Name and parent never change afterwards); the
// recomputing fallback covers zero-value PhaseTypes built outside the
// constructors.
func (t *PhaseType) Path() string {
	if t.path != "" {
		return t.path
	}
	if t.parent == nil {
		return "/" + t.Name
	}
	return t.parent.Path() + "/" + t.Name
}

// ExecutionModel is a validated hierarchy of phase types with fast lookup by
// type path.
type ExecutionModel struct {
	Root   *PhaseType
	byPath map[string]*PhaseType
}

// NewExecutionModel finalizes a type hierarchy into a model. It validates
// that After edges reference existing siblings and contain no cycles, and
// that no type is both Sequential and SyncGroup: a sequential instance
// starts after its predecessor ends, while a sync group makes every
// instance end with its latest sibling, so such a type would wait on
// itself.
func NewExecutionModel(root *PhaseType) (*ExecutionModel, error) {
	m := &ExecutionModel{Root: root, byPath: map[string]*PhaseType{}}
	var walk func(t *PhaseType) error
	walk = func(t *PhaseType) error {
		m.byPath[t.Path()] = t
		if t.Sequential && t.SyncGroup {
			return fmt.Errorf("core: phase %s: a type cannot be both Sequential and SyncGroup", t.Path())
		}
		if err := checkSiblingDAG(t); err != nil {
			return err
		}
		for _, c := range t.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return m, nil
}

// checkSiblingDAG validates the After edges among t's children.
func checkSiblingDAG(t *PhaseType) error {
	for _, c := range t.children {
		for _, a := range c.After {
			if _, ok := t.byName[a]; !ok {
				return fmt.Errorf("core: phase %s: After references unknown sibling %q", c.Path(), a)
			}
		}
	}
	// Kahn's algorithm over the sibling graph.
	indeg := map[string]int{}
	for _, c := range t.children {
		indeg[c.Name] += 0
		for range c.After {
			indeg[c.Name]++
		}
	}
	queue := []string{}
	for _, c := range t.children {
		if indeg[c.Name] == 0 {
			queue = append(queue, c.Name)
		}
	}
	seen := 0
	succ := map[string][]string{}
	for _, c := range t.children {
		for _, a := range c.After {
			succ[a] = append(succ[a], c.Name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(t.children) {
		return fmt.Errorf("core: phase %s: cycle in sibling precedence", t.Path())
	}
	return nil
}

// Lookup resolves a type path, or nil.
func (m *ExecutionModel) Lookup(typePath string) *PhaseType { return m.byPath[typePath] }

// LookupInstance resolves the type of an instance path (indices stripped),
// or nil.
func (m *ExecutionModel) LookupInstance(instancePath string) *PhaseType {
	return m.byPath[enginelog.TypePath(instancePath)]
}

// TypePaths returns all type paths, sorted.
func (m *ExecutionModel) TypePaths() []string {
	out := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ResourceKind distinguishes the paper's two resource archetypes.
type ResourceKind int

const (
	// Consumable resources (CPU, network) have a capacity; demand above
	// capacity slows the workload.
	Consumable ResourceKind = iota
	// Blocking resources (locks, queues, GC) stall phases while unavailable;
	// they appear in the trace as blocking events, not utilization.
	Blocking
)

// String implements fmt.Stringer.
func (k ResourceKind) String() string {
	switch k {
	case Consumable:
		return "consumable"
	case Blocking:
		return "blocking"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Resource describes one resource in the system under test.
type Resource struct {
	// Name identifies the resource ("cpu", "net-out", "gc", "msgqueue").
	Name string
	// Kind is Consumable or Blocking.
	Kind ResourceKind
	// Capacity is the per-instance capacity of a consumable resource in its
	// absolute unit (cores, bytes/second). Ignored for blocking resources.
	Capacity float64
	// PerMachine resources have one instance per machine; otherwise a single
	// cluster-global instance exists.
	PerMachine bool
}

// ResourceModel is the set of resources available in the SUT.
type ResourceModel struct {
	resources []*Resource
	byName    map[string]*Resource
}

// NewResourceModel validates and indexes a resource list.
func NewResourceModel(resources ...*Resource) (*ResourceModel, error) {
	m := &ResourceModel{byName: map[string]*Resource{}}
	for _, r := range resources {
		if r.Name == "" || strings.ContainsAny(r.Name, "/ \t\n") {
			return nil, fmt.Errorf("core: invalid resource name %q", r.Name)
		}
		if _, dup := m.byName[r.Name]; dup {
			return nil, fmt.Errorf("core: duplicate resource %q", r.Name)
		}
		if r.Kind == Consumable && r.Capacity <= 0 {
			return nil, fmt.Errorf("core: consumable resource %q needs positive capacity", r.Name)
		}
		m.resources = append(m.resources, r)
		m.byName[r.Name] = r
	}
	return m, nil
}

// Resources returns the resources in declaration order.
func (m *ResourceModel) Resources() []*Resource { return m.resources }

// Lookup resolves a resource by name, or nil.
func (m *ResourceModel) Lookup(name string) *Resource { return m.byName[name] }

// Consumables returns only the consumable resources.
func (m *ResourceModel) Consumables() []*Resource {
	var out []*Resource
	for _, r := range m.resources {
		if r.Kind == Consumable {
			out = append(out, r)
		}
	}
	return out
}

// RuleKind discriminates attribution rules (§III-D1).
type RuleKind int

const (
	// RuleNone: the phase does not use the resource.
	RuleNone RuleKind = iota
	// RuleExact: the phase demands exactly Amount units of the resource
	// while active (e.g. one core per compute thread).
	RuleExact
	// RuleVariable: the phase uses as much of the resource as it can get,
	// with relative weight Amount (the paper's "1x", "2x").
	RuleVariable
)

// String implements fmt.Stringer.
func (k RuleKind) String() string {
	switch k {
	case RuleNone:
		return "none"
	case RuleExact:
		return "exact"
	case RuleVariable:
		return "variable"
	default:
		return fmt.Sprintf("RuleKind(%d)", int(k))
	}
}

// Rule is one attribution rule: how a phase type demands a resource.
type Rule struct {
	Kind RuleKind
	// Amount is the absolute demand for RuleExact (resource units) or the
	// relative weight for RuleVariable.
	Amount float64
}

// None, Exact and Variable are rule constructors.
func None() Rule                   { return Rule{Kind: RuleNone} }
func Exact(amount float64) Rule    { return Rule{Kind: RuleExact, Amount: amount} }
func Variable(weight float64) Rule { return Rule{Kind: RuleVariable, Amount: weight} }

// RuleSet is the attribution-rule matrix: phase type × resource → rule.
// Absent entries fall back to Default; the paper's default is an implicit
// Variable rule with weight 1.
type RuleSet struct {
	Default Rule
	rules   map[string]map[string]Rule
}

// NewRuleSet creates a rule set with the paper's implicit default
// (Variable 1x for every phase/resource pair).
func NewRuleSet() *RuleSet {
	return &RuleSet{Default: Variable(1), rules: map[string]map[string]Rule{}}
}

// Set installs the rule for a phase type path and resource name.
func (rs *RuleSet) Set(typePath, resource string, r Rule) *RuleSet {
	byRes, ok := rs.rules[typePath]
	if !ok {
		byRes = map[string]Rule{}
		rs.rules[typePath] = byRes
	}
	byRes[resource] = r
	return rs
}

// Get returns the rule for a phase type path and resource, falling back to
// Default.
func (rs *RuleSet) Get(typePath, resource string) Rule {
	if byRes, ok := rs.rules[typePath]; ok {
		if r, ok := byRes[resource]; ok {
			return r
		}
	}
	return rs.Default
}

// RuleMemo is RuleSet.Get for one resource, memoized by phase type pointer.
// Hot loops look up the rule of thousands of phases that share a dozen or
// so types, and a linear identity scan over those beats hashing the type
// path string per phase. It returns exactly what Get returns. The zero value
// is ready; Reset it before switching resource or rule set.
type RuleMemo struct {
	typ []*PhaseType
	val []Rule
}

// Get returns rs.Get(typ.Path(), resource).
func (m *RuleMemo) Get(rs *RuleSet, typ *PhaseType, resource string) Rule {
	for i, t := range m.typ {
		if t == typ {
			return m.val[i]
		}
	}
	r := rs.Get(typ.Path(), resource)
	m.typ = append(m.typ, typ)
	m.val = append(m.val, r)
	return r
}

// Reset forgets every memoized rule, keeping capacity; it drops the type
// pointers so a pooled memo never pins a model.
func (m *RuleMemo) Reset() {
	clear(m.typ)
	m.typ, m.val = m.typ[:0], m.val[:0]
}

// Explicit reports whether an explicit rule exists for the pair.
func (rs *RuleSet) Explicit(typePath, resource string) bool {
	byRes, ok := rs.rules[typePath]
	if !ok {
		return false
	}
	_, ok = byRes[resource]
	return ok
}
