package main

import (
	"fmt"
	"math"
	"math/rand"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
)

// auditSkeletonSamples is how many skeleton edges each view audit checks
// against in-subgraph shortest paths.
const auditSkeletonSamples = 16

// auditView checks one published index view against the benchmark's weight
// table w for the same epoch: every edge weight must equal the table, and on
// a seeded sample of skeleton edges each weight must be at most the shortest
// path between its endpoints inside every subgraph that holds both — the
// lower bound Theorem 3's termination test rests on.
func auditView(rg *roadGraph, v *dtlp.IndexView, w []float64, rng *rand.Rand) error {
	for e := range w {
		if got := v.GlobalWeight(graph.EdgeID(e)); got != w[e] {
			return fmt.Errorf("epoch %d: edge %d weighs %v in the index, %v in the table", v.Epoch(), e, got, w[e])
		}
	}
	skel := v.Skeleton()
	sg := skel.Graph()
	if sg.NumEdges() == 0 {
		return nil
	}
	part := v.Partition()
	sw := v.SkeletonWeights()
	allowed := make([]bool, len(w))
	for i := 0; i < auditSkeletonSamples; i++ {
		e := graph.EdgeID(rng.Intn(sg.NumEdges()))
		ep := sg.EdgeEndpoints(e)
		a, b := skel.GlobalID(ep.U), skel.GlobalID(ep.V)
		lb := sw.Weight(e)
		for _, id := range part.CommonSubgraphs(a, b) {
			sub := part.Subgraph(id)
			for j := range allowed {
				allowed[j] = false
			}
			for _, ge := range sub.GlobalEdges {
				allowed[ge] = true
			}
			_, d, ok := rg.dijkstra(int32(a), int32(b), w, search{allowed: allowed})
			if ok && lb > d+tol(d) {
				return fmt.Errorf("epoch %d: skeleton edge %d-%d weighs %v, above the %v path inside subgraph %d", v.Epoch(), a, b, lb, d, id)
			}
		}
	}
	return nil
}

// trafficBatch draws one stationary traffic batch: each edge is picked with
// probability alpha and set to its initial weight scaled by a factor drawn
// uniformly from [1-tau, 1+tau], so weights wander around w0 instead of
// drifting.
func trafficBatch(rng *rand.Rand, w0 []float64, alpha, tau float64) []graph.WeightUpdate {
	var batch []graph.WeightUpdate
	for e, w := range w0 {
		if rng.Float64() >= alpha {
			continue
		}
		nw := w * (1 + (rng.Float64()*2-1)*tau)
		batch = append(batch, graph.WeightUpdate{Edge: graph.EdgeID(e), NewWeight: math.Max(nw, 0.5)})
	}
	return batch
}

// applyToTable returns a copy of w with batch applied.
func applyToTable(w []float64, batch []graph.WeightUpdate) []float64 {
	out := append([]float64(nil), w...)
	for _, u := range batch {
		out[u.Edge] = u.NewWeight
	}
	return out
}
