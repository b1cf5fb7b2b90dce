package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"kspdg/internal/baseline"
	"kspdg/internal/core"
	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/serve"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

const (
	// staticK is the number of paths every static-small query asks for.
	staticK = 2
	// staticPanelSeed and staticPanelSize fix the static-small query panel:
	// uniform random (s, t) pairs on the small NY network.  The panel does
	// not depend on --seed because per-query cost spans four orders of
	// magnitude (0.2 ms to 5 s), so a seed-drawn sample of the few hundred
	// queries a run can afford would move the figures by more than any
	// bound; --seed orders the panel in every round instead.
	staticPanelSeed = 20200614
	staticPanelSize = 32
)

// built is a road network with its partition and DTLP index, and the time
// each took to build.
type built struct {
	ds           *workload.Dataset
	z            int
	part         *partition.Partition
	index        *dtlp.Index
	partS, dtlpS float64
}

// buildIndex generates a built-in dataset, partitions it at subgraph size z
// (0 = the dataset's default) and builds its DTLP index with kspd's default
// ξ = 3 bounding paths per boundary pair.
func buildIndex(name string, scale workload.Scale, z int) (built, error) {
	ds, err := workload.BuiltinDataset(name, scale)
	if err != nil {
		return built{}, err
	}
	if z == 0 {
		z = ds.DefaultZ
	}
	t0 := time.Now()
	part, err := partition.PartitionGraph(ds.Graph, z)
	if err != nil {
		return built{}, err
	}
	t1 := time.Now()
	index, err := dtlp.Build(part, dtlp.Config{Xi: 3})
	if err != nil {
		return built{}, err
	}
	t2 := time.Now()
	return built{ds: ds, z: z, part: part, index: index, partS: t1.Sub(t0).Seconds(), dtlpS: t2.Sub(t1).Seconds()}, nil
}

// reportIndex sets the index-shape per-layer metrics.
func reportIndex(rep *report, b built) {
	st := b.index.Stats()
	rep.set("partition.build_s", b.partS)
	rep.set("dtlp.build_s", b.dtlpS)
	rep.set("dtlp.skeleton_vertices", float64(st.SkeletonVertices))
	rep.set("dtlp.skeleton_fraction", float64(st.SkeletonVertices)/float64(b.ds.Graph.NumVertices()))
	rep.set("dtlp.skeleton_edges", float64(st.SkeletonEdges))
	rep.set("dtlp.bounding_paths", float64(st.NumBoundingPaths))
	rep.set("dtlp.ep_index_entries", float64(st.EPIndexEntries))
	rep.set("dtlp.approx_mb", float64(st.ApproxBytes)/(1<<20))
}

type query struct{ s, t graph.VertexID }

// uniformQueries draws n distinct (s, t) pairs with s != t.
func uniformQueries(rng *rand.Rand, numV, n int) []query {
	seen := map[query]bool{}
	var out []query
	for len(out) < n {
		q := query{graph.VertexID(rng.Intn(numV)), graph.VertexID(rng.Intn(numV))}
		if q.s == q.t || seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
	}
	return out
}

type staticDeployment struct {
	b   built
	srv *serve.Server
}

// completion is one answered query of a read workload.
type completion struct {
	q       query
	panel   int // static-small: index into the panel
	latency time.Duration
	res     core.Result
	err     error
}

// runStatic is the static-small workload: kspd's single-process shape
// (serve with the local refine step, no HTTP) over the small NY network, a
// closed loop of one client replaying the query panel, no writes.
//
// One client, not one per CPU: a query is single-threaded and CPU-bound, and
// with both CPUs of a 2-vCPU VM busy, the CPU time one round of the panel
// cost swung between 15.7 and 24.8 s within two and a half minutes, while
// with one client it stayed between 19.7 and 20.2 s over five rounds.
// traffic-tiny measures concurrent clients.
func runStatic(o options, rep *report) error {
	const n = 1
	d, err := repeatSetup(rep, func() (*staticDeployment, time.Duration, error) {
		start := time.Now()
		b, err := buildIndex("NY", workload.ScaleSmall, 0)
		if err != nil {
			return nil, 0, err
		}
		// The panel repeats once per round, so the result cache is off: with
		// it on, every round after the first would measure cache hits.
		srv := serve.New(b.index, nil, serve.Options{Workers: clients(), CacheCapacity: -1})
		return &staticDeployment{b: b, srv: srv}, time.Since(start), nil
	}, func(d *staticDeployment) { d.srv.Close() })
	if err != nil {
		return err
	}
	defer d.srv.Close()
	g := d.b.ds.Graph
	panel := uniformQueries(rand.New(rand.NewSource(staticPanelSeed)), g.NumVertices(), staticPanelSize)
	var tracer *trace.Tracer
	if o.traced {
		tracer = trace.New(trace.Options{SampleRate: -1})
	}

	// Clients draw from one stream of rounds; each round is the panel in a
	// fresh seeded order.  Rounds are issued whole, the first one always, so
	// every panel query is measured the same number of times.
	rng := rand.New(rand.NewSource(o.seed))
	var mu sync.Mutex
	var order []int
	issued := 0
	next := func(elapsed time.Duration) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if issued%len(panel) == 0 && issued > 0 && elapsed >= time.Duration(o.seconds)*time.Second {
			return 0, false
		}
		if len(order) == 0 {
			order = rng.Perm(len(panel))
		}
		i := order[0]
		order = order[1:]
		issued++
		return i, true
	}
	var done []completion
	var views []trace.TraceView
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next(time.Since(start))
				if !ok {
					return
				}
				q := panel[i]
				ctx := context.Background()
				tr, root := tracer.StartTrace("bench_query")
				ctx = trace.NewContext(ctx, root)
				t0 := time.Now()
				res, err := d.srv.QueryCtx(ctx, q.s, q.t, staticK)
				lat := time.Since(t0)
				tr.Finish()
				mu.Lock()
				done = append(done, completion{q: q, panel: i, latency: lat, res: res, err: err})
				if tr != nil {
					views = append(views, tr.View())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// Every panel query carries equal weight whatever its number of
	// repetitions, and each counts at the median of its repetitions, so a
	// few seconds of CPU stolen by the host do not move the figures:
	// throughput is the closed loop's n / mean latency over the panel
	// (Little's law), the median is over per-query medians.
	perQuery := make([][]float64, len(panel))
	var all []float64
	for _, c := range done {
		perQuery[c.panel] = append(perQuery[c.panel], ms(c.latency))
		all = append(all, ms(c.latency))
	}
	var medians []float64
	for _, l := range perQuery {
		medians = append(medians, median(l))
	}
	rep.set("workload.ops_per_s", float64(n)/(mean(medians)/1000))
	// The window holds whole rounds, so every panel query weighs the same
	// in the CPU time per query.
	rep.cpuPerOp(ms(cpu) / float64(len(done)))

	rg := newRoadGraph(g)
	w := initialWeights(g)
	exact := make([][]float64, len(panel))
	for i, q := range panel {
		exact[i] = rg.yen(int32(q.s), int32(q.t), staticK, w)
	}
	bounded := map[int]bool{}
	var iters []float64
	cands := 0.0
	for _, c := range done {
		if c.err != nil {
			rep.fail("query", "error")
			continue
		}
		if c.res.Epoch != 0 {
			rep.violation("query", fmt.Sprintf("answer at epoch %d on a workload without writes", c.res.Epoch))
			continue
		}
		rep.checked("query", fmt.Sprintf("%d->%d", c.q.s, c.q.t), rg.checkAnswer(int32(c.q.s), int32(c.q.t), staticK, w, fromPaths(c.res.Paths, c.res.Converged, c.res.BoundGap), exact[c.panel]))
		if c.res.BoundGap > 0 {
			bounded[c.panel] = true
		}
		iters = append(iters, float64(c.res.Iterations))
		cands += float64(c.res.CandidatesGenerated)
	}
	if !o.traced {
		return nil
	}
	reportIndex(rep, d.b)
	nq := float64(len(done))
	rep.set("core.iterations_p50", quantile(iters, 0.5))
	rep.set("core.iterations_p95", quantile(iters, 0.95))
	rep.set("core.candidates_per_query", cands/nq)
	rep.set("core.bounded_answers", float64(len(bounded)))
	st := d.srv.Stats()
	rep.set("serve.cache_hits", float64(st.CacheHits))
	rep.set("serve.coalesced", float64(st.Coalesced))
	rep.set("process.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/nq)
	rep.set("workload.op_p50_ms", median(medians))
	rep.set("workload.op_p95_ms", quantile(all, 0.95))
	cs := newCostSet()
	for _, v := range views {
		cs.add(v)
	}
	reportQuerySpans(rep, cs)
	runBaselines(rep, g, panel, staticK, rg, w, exact)
	return nil
}

// runBaselines times the centralized Yen and FindKSP baselines on the
// queries, one thread, and checks their answers against the oracle: the
// paper's comparison only means something if the baselines are right.
func runBaselines(rep *report, g *graph.Graph, qs []query, k int, rg *roadGraph, w []float64, exact [][]float64) {
	for _, alg := range []struct {
		op, metric string
		a          baseline.Algorithm
	}{
		{"baseline_yen", "baseline.yen_p50_ms", baseline.NewYen(g)},
		{"baseline_findksp", "baseline.findksp_p50_ms", baseline.NewFindKSP(g)},
	} {
		var lats []float64
		for i, q := range qs {
			t0 := time.Now()
			paths, err := alg.a.Query(q.s, q.t, k)
			lats = append(lats, ms(time.Since(t0)))
			if err != nil {
				rep.fail(alg.op, "error")
				continue
			}
			rep.checked(alg.op, fmt.Sprintf("%d->%d", q.s, q.t), rg.checkAnswer(int32(q.s), int32(q.t), k, w, fromPaths(paths, true, 0), exact[i]))
		}
		rep.set(alg.metric, median(lats))
	}
}
