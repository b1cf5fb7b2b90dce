package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"kspdg/internal/graph"
)

// roadGraph is the benchmark's own copy of a road network's topology: the
// oracle and the audits compute over it with the benchmark's own weight
// tables, so no answer is checked against code it was produced by.
type roadGraph struct {
	n        int
	directed bool
	adj      [][]arc
	ends     [][2]int32
	edgeOf   map[[2]int32]int32
}

type arc struct{ to, edge int32 }

// newRoadGraph copies g's vertices and edges.
func newRoadGraph(g *graph.Graph) *roadGraph {
	rg := &roadGraph{
		n:        g.NumVertices(),
		directed: g.Directed(),
		adj:      make([][]arc, g.NumVertices()),
		ends:     make([][2]int32, g.NumEdges()),
		edgeOf:   make(map[[2]int32]int32, g.NumEdges()),
	}
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.EdgeEndpoints(graph.EdgeID(e))
		rg.addEdge(int32(ep.U), int32(ep.V), int32(e))
	}
	return rg
}

func (rg *roadGraph) addEdge(u, v, e int32) {
	for int(e) >= len(rg.ends) {
		rg.ends = append(rg.ends, [2]int32{})
	}
	rg.ends[e] = [2]int32{u, v}
	rg.edgeOf[rg.key(u, v)] = e
	rg.adj[u] = append(rg.adj[u], arc{to: v, edge: e})
	if !rg.directed {
		rg.adj[v] = append(rg.adj[v], arc{to: u, edge: e})
	}
}

func (rg *roadGraph) key(u, v int32) [2]int32 {
	if !rg.directed && u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// edge returns the edge joining u to v.
func (rg *roadGraph) edge(u, v int32) (int32, bool) {
	e, ok := rg.edgeOf[rg.key(u, v)]
	return e, ok
}

// initialWeights returns g's initial edge weights as a weight table.
func initialWeights(g *graph.Graph) []float64 {
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = g.InitialWeight(graph.EdgeID(e))
	}
	return w
}

// search restricts a shortest-path search: banned vertices and edges are
// never entered, and when allowed is non-nil only edges it marks are used.
type search struct {
	bannedV []bool
	bannedE map[int32]bool
	allowed []bool
}

type pqItem struct {
	v int32
	d float64
}

type pq []pqItem

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pq) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra returns the shortest s-t path under w and the restriction, or
// ok=false when t is unreachable.
func (rg *roadGraph) dijkstra(s, t int32, w []float64, r search) (path []int32, dist float64, ok bool) {
	d := make([]float64, rg.n)
	prev := make([]int32, rg.n)
	for i := range d {
		d[i] = math.Inf(1)
		prev[i] = -1
	}
	d[s] = 0
	h := &pq{{v: s}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.d > d[it.v] {
			continue
		}
		if it.v == t {
			break
		}
		for _, a := range rg.adj[it.v] {
			if r.bannedV != nil && r.bannedV[a.to] {
				continue
			}
			if r.bannedE[a.edge] || (r.allowed != nil && !r.allowed[a.edge]) {
				continue
			}
			nd := it.d + w[a.edge]
			if nd < d[a.to] {
				d[a.to] = nd
				prev[a.to] = it.v
				heap.Push(h, pqItem{v: a.to, d: nd})
			}
		}
	}
	if math.IsInf(d[t], 1) {
		return nil, 0, false
	}
	for v := t; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, d[t], true
}

// pathDist sums w along the vertex sequence p; ok is false when two
// consecutive vertices are not joined by an edge.
func (rg *roadGraph) pathDist(p []int32, w []float64) (float64, bool) {
	sum := 0.0
	for i := 1; i < len(p); i++ {
		e, ok := rg.edge(p[i-1], p[i])
		if !ok {
			return 0, false
		}
		sum += w[e]
	}
	return sum, true
}

type kPath struct {
	v []int32
	d float64
}

func seqKey(p []int32) string {
	b := make([]byte, 0, 4*len(p))
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// yen returns the lengths of the k shortest simple s-t paths under w, in
// ascending order (fewer when fewer simple paths exist).  Lengths, not
// vertex sequences, are the oracle's answer: integer weights tie, and tied
// paths may legitimately come back in any order.
func (rg *roadGraph) yen(s, t int32, k int, w []float64) []float64 {
	first, d, ok := rg.dijkstra(s, t, w, search{})
	if !ok {
		return nil
	}
	found := []kPath{{v: first, d: d}}
	seen := map[string]bool{seqKey(first): true}
	var cands []kPath
	for len(found) < k {
		last := found[len(found)-1].v
		for i := 0; i+1 < len(last); i++ {
			root := last[:i+1]
			r := search{bannedV: make([]bool, rg.n), bannedE: map[int32]bool{}}
			for _, p := range found {
				if len(p.v) > i && equalSeq(p.v[:i+1], root) {
					if e, ok := rg.edge(p.v[i], p.v[i+1]); ok {
						r.bannedE[e] = true
					}
				}
			}
			for _, v := range root[:i] {
				r.bannedV[v] = true
			}
			spur, sd, ok := rg.dijkstra(root[i], t, w, r)
			if !ok {
				continue
			}
			full := append(append([]int32(nil), root[:i]...), spur...)
			key := seqKey(full)
			if seen[key] {
				continue
			}
			rd, _ := rg.pathDist(root, w)
			seen[key] = true
			cands = append(cands, kPath{v: full, d: rd + sd})
		}
		if len(cands) == 0 {
			break
		}
		best := 0
		for i := range cands {
			if cands[i].d < cands[best].d {
				best = i
			}
		}
		found = append(found, cands[best])
		cands = append(cands[:best], cands[best+1:]...)
	}
	out := make([]float64, len(found))
	for i, p := range found {
		out[i] = p.d
	}
	return out
}

func equalSeq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// answer is one KSP answer as the program returned it.
type answer struct {
	paths     [][]int32
	dists     []float64
	converged bool
	gap       float64
}

// fromPaths converts the program's paths to an answer.
func fromPaths(ps []graph.Path, converged bool, gap float64) answer {
	a := answer{converged: converged, gap: gap}
	for _, p := range ps {
		v := make([]int32, len(p.Vertices))
		for i, x := range p.Vertices {
			v[i] = int32(x)
		}
		a.paths = append(a.paths, v)
		a.dists = append(a.dists, p.Dist)
	}
	return a
}

// errNonConverged marks an answer the program itself reports as possibly
// truncated: a failed operation, not a wrong one.
var errNonConverged = fmt.Errorf("converged=false")

// tol is the relative tolerance for comparing path lengths.
func tol(x float64) float64 { return 1e-9 * math.Max(1, math.Abs(x)) }

// checkAnswer checks one s-t answer for k paths under the weight table w
// against the oracle's lengths exact.  It returns errNonConverged for a
// truncated answer and a descriptive error for any contract violation.
func (rg *roadGraph) checkAnswer(s, t int32, k int, w []float64, a answer, exact []float64) error {
	if !a.converged {
		return errNonConverged
	}
	if len(a.paths) > k {
		return fmt.Errorf("%d paths for k=%d", len(a.paths), k)
	}
	seen := map[string]bool{}
	for i, p := range a.paths {
		if len(p) < 1 || p[0] != s || p[len(p)-1] != t {
			return fmt.Errorf("path %d does not run from %d to %d", i, s, t)
		}
		onPath := map[int32]bool{}
		for _, v := range p {
			if onPath[v] {
				return fmt.Errorf("path %d is not simple: vertex %d repeats", i, v)
			}
			onPath[v] = true
		}
		sum, ok := rg.pathDist(p, w)
		if !ok {
			return fmt.Errorf("path %d uses a missing edge", i)
		}
		if math.Abs(sum-a.dists[i]) > tol(sum) {
			return fmt.Errorf("path %d reports dist %v, its edges sum to %v", i, a.dists[i], sum)
		}
		key := seqKey(p)
		if seen[key] {
			return fmt.Errorf("path %d duplicates an earlier path", i)
		}
		seen[key] = true
		if i > 0 && a.dists[i] < a.dists[i-1]-tol(a.dists[i]) {
			return fmt.Errorf("path %d (dist %v) is shorter than path %d (dist %v)", i, a.dists[i], i-1, a.dists[i-1])
		}
	}
	if len(a.paths) != len(exact) {
		return fmt.Errorf("%d paths, the oracle finds %d", len(a.paths), len(exact))
	}
	got := append([]float64(nil), a.dists...)
	sort.Float64s(got)
	for i, d := range got {
		if d < exact[i]-tol(exact[i]) || d > exact[i]+a.gap+tol(exact[i]) {
			if a.gap == 0 {
				return fmt.Errorf("length %d is %v, the oracle's is %v", i, d, exact[i])
			}
			return fmt.Errorf("length %d is %v, outside [%v, %v+bound_gap %v]", i, d, exact[i], exact[i], a.gap)
		}
	}
	return nil
}
