package main

import (
	"sort"
	"strconv"

	"kspdg/internal/trace"
)

// layerOf names the module that records each span the program emits.  The
// serve layer's "execute" span wraps the engine call, so its self time (join
// and bookkeeping outside filter and refine) is the engine's.  Spans the
// benchmark starts itself ("bench") are the client side.
var layerOf = map[string]string{
	"request":     "gateway",
	"admission":   "gateway",
	"validate":    "gateway",
	"queue":       "serve",
	"coalesced":   "serve",
	"execute":     "core",
	"filter":      "core",
	"refine":      "core",
	"rpc_wait":    "rpcbatch",
	"rpc_batch":   "rpcbatch",
	"rpc":         "cluster",
	"hedge":       "cluster",
	"failover":    "cluster",
	"worker_exec": "cluster",
	"pair_yen":    "cluster",
	"rebuild":     "write",
	"wal":         "write",
	"broadcast":   "write",
	"snapshot":    "write",
}

// traceCosts is one trace's cost broken down two ways: total duration per
// span name, and self time per layer (a span's duration minus the part of
// it its children cover).
type traceCosts struct {
	total map[string]float64 // span name -> ms
	self  map[string]float64 // layer -> ms
	pairs float64            // pairs the engine's refine steps asked for
}

// costsOf computes the costs of one finished trace.
func costsOf(v trace.TraceView) traceCosts {
	c := traceCosts{total: map[string]float64{}, self: map[string]float64{}}
	children := map[uint64][]trace.SpanView{}
	for _, s := range v.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range v.Spans {
		c.total[s.Name] += s.DurMs
		if s.Name == "refine" {
			c.pairs += attrInt(s, "pairs")
		}
		layer, ok := layerOf[s.Name]
		if !ok {
			layer = "bench"
		}
		c.self[layer] += s.DurMs - coveredMs(s, children[s.ID])
	}
	return c
}

func attrInt(s trace.SpanView, key string) float64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			if n, err := strconv.ParseFloat(a.Value, 64); err == nil {
				return n
			}
		}
	}
	return 0
}

// coveredMs is the length of the union of the children's intervals, clipped
// to the parent's.  Children overlap when the engine overlaps a filter step
// with an in-flight refine, or a worker runs pairs in parallel.
func coveredMs(parent trace.SpanView, kids []trace.SpanView) float64 {
	type iv struct{ lo, hi float64 }
	pLo := float64(parent.StartUs) / 1000
	pHi := pLo + parent.DurMs
	var ivs []iv
	for _, k := range kids {
		lo := float64(k.StartUs) / 1000
		hi := lo + k.DurMs
		if lo < pLo {
			lo = pLo
		}
		if hi > pHi {
			hi = pHi
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, pLo
	for _, x := range ivs {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			covered += x.hi - end
			end = x.hi
		}
	}
	return covered
}

// costSet accumulates the costs of many traces of one operation type.
type costSet struct {
	n     int
	pairs float64
	total map[string]float64
	self  map[string]float64
	queue []float64 // per-trace serve queue wait, for percentiles
}

func newCostSet() *costSet {
	return &costSet{total: map[string]float64{}, self: map[string]float64{}}
}

func (cs *costSet) add(v trace.TraceView) {
	c := costsOf(v)
	cs.n++
	cs.pairs += c.pairs
	for k, x := range c.total {
		cs.total[k] += x
	}
	for k, x := range c.self {
		cs.self[k] += x
	}
	cs.queue = append(cs.queue, c.total["queue"])
}

// perOp returns the mean total duration of the named spans per trace.
func (cs *costSet) perOp(names ...string) float64 {
	if cs.n == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range names {
		sum += cs.total[n]
	}
	return sum / float64(cs.n)
}

// selfPerOp returns a layer's mean self time per trace.
func (cs *costSet) selfPerOp(layer string) float64 {
	if cs.n == 0 {
		return 0
	}
	return cs.self[layer] / float64(cs.n)
}

// reportQuerySpans sets the span-derived per-layer metrics of a query
// workload from its query traces.
func reportQuerySpans(rep *report, cs *costSet) {
	rep.set("core.filter_ms_per_query", cs.perOp("filter"))
	rep.set("core.refine_wait_ms_per_query", cs.perOp("refine"))
	rep.set("core.execute_ms_per_query", cs.perOp("execute"))
	if cs.n > 0 {
		rep.set("core.pairs_refined_per_query", cs.pairs/float64(cs.n))
	}
	rep.set("serve.queue_ms_p50", quantile(cs.queue, 0.5))
	rep.set("serve.queue_ms_p95", quantile(cs.queue, 0.95))
	rep.set("gateway.admission_ms", cs.perOp("admission"))
	rep.set("rpcbatch.wait_ms", cs.perOp("rpc_wait"))
	rpc, exec := cs.perOp("rpc"), cs.perOp("worker_exec")
	rep.set("cluster.rpc_ms", rpc)
	rep.set("cluster.worker_exec_ms", exec)
	if rpc > 0 {
		rep.set("cluster.wire_ms", rpc-exec)
	}
	rep.set("cluster.pair_yen_ms", cs.perOp("pair_yen"))
	for _, layer := range []string{"gateway", "serve", "core", "rpcbatch", "cluster"} {
		rep.set(layer+".self_ms_per_query", cs.selfPerOp(layer))
	}
}

// reportWriteSpans sets the write path's per-layer metrics from its update
// traces.
func reportWriteSpans(rep *report, cs *costSet) {
	rep.set("dtlp.update_ms", cs.perOp("rebuild"))
	rep.set("store.wal_ms", cs.perOp("wal"))
	rep.set("cluster.broadcast_ms", cs.perOp("broadcast"))
	rep.set("gateway.validate_ms", cs.perOp("validate"))
}
