// Package workflow executes a single forecast product run: the numerical
// simulation producing model outputs incrementally, and the master process
// that launches product-generation tasks as new model data appears
// (§2.2 of the paper).
//
// It also provides a small generic DAG utility that validates dependency
// graphs and computes topological orders; the run path does not use it.
package workflow

import (
	"fmt"
	"sort"
)

// DAG is a directed acyclic graph over string-named nodes. Edges point
// from a dependency to its dependents (u must complete before v).
type DAG struct {
	nodes map[string]bool
	succ  map[string][]string
	pred  map[string][]string
}

// NewDAG creates an empty DAG.
func NewDAG() *DAG {
	return &DAG{
		nodes: make(map[string]bool),
		succ:  make(map[string][]string),
		pred:  make(map[string][]string),
	}
}

// AddNode adds a node; adding an existing node is a no-op.
func (d *DAG) AddNode(name string) {
	d.nodes[name] = true
}

// AddEdge adds a dependency edge from u to v (u before v), creating the
// nodes as needed. Duplicate edges are ignored.
func (d *DAG) AddEdge(u, v string) {
	d.AddNode(u)
	d.AddNode(v)
	for _, existing := range d.succ[u] {
		if existing == v {
			return
		}
	}
	d.succ[u] = append(d.succ[u], v)
	d.pred[v] = append(d.pred[v], u)
}

// Nodes returns all node names, sorted.
func (d *DAG) Nodes() []string {
	out := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Preds returns the dependencies of a node, sorted.
func (d *DAG) Preds(name string) []string {
	out := append([]string(nil), d.pred[name]...)
	sort.Strings(out)
	return out
}

// TopoSort returns a topological order, breaking ties by name so the
// result is deterministic. It returns an error naming a cycle member if
// the graph has a cycle.
func (d *DAG) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(d.nodes))
	for n := range d.nodes {
		indeg[n] = len(d.pred[n])
	}
	var ready []string
	for n, deg := range indeg {
		if deg == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var unlocked []string
		for _, m := range d.succ[n] {
			indeg[m]--
			if indeg[m] == 0 {
				unlocked = append(unlocked, m)
			}
		}
		sort.Strings(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(order) != len(d.nodes) {
		for n, deg := range indeg {
			if deg > 0 {
				return nil, fmt.Errorf("workflow: dependency cycle involving %q", n)
			}
		}
	}
	return order, nil
}

// mergeSorted merges two sorted string slices.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Validate reports the first cycle error, or nil for a valid DAG.
func (d *DAG) Validate() error {
	_, err := d.TopoSort()
	return err
}
