package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"kspdg/internal/dtlp"
	"kspdg/internal/gateway"
	"kspdg/internal/graph"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

// traffic-tiny parameters.  COL at z=96 cuts the tiny network into a few
// large subgraphs (skeleton 46 of 280 vertices), so engine work is about a
// millisecond per query and the serving stack carries most of the cost.
//
// The workload runs in rounds: one stationary batch through POST
// /v1/updates while no query is in flight, then one panel of hotspot
// queries from the closed loop.  A cycle is trafficCycle rounds, each with
// its own batch and panel, and the first batch of a cycle also restores
// every edge the rest of the cycle changes, so every cycle serves the same
// queries on the same weights.  The panels and batches are fixed, drawn
// from trafficInputSeed; --seed orders each round's panel.  Reads and writes
// alternate instead of overlapping because a standalone worker answers a
// request pinned to an epoch from its latest weights: a query overlapping a
// write can come back with the next epoch's distances, now and then.
const (
	trafficDataset   = "COL"
	trafficZ         = 96
	trafficK         = 2
	trafficHubs      = 16
	trafficHubSeed   = 8
	trafficHubShare  = 0.9 // of targets
	trafficSrcShare  = 0.3 // of sources
	trafficInputSeed = 20200615
	trafficPanelSize = 256 // queries per round
	trafficCycle     = 8   // rounds per cycle
	trafficAlpha     = 0.05
	trafficTau       = 0.1
)

type httpDeployment struct {
	*deployment
	hs   *http.Server
	base string
}

type pathJSON struct {
	Vertices []int32 `json:"vertices"`
	Distance float64 `json:"distance"`
}

type queryResponse struct {
	Paths      []pathJSON `json:"paths"`
	Epoch      uint64     `json:"epoch"`
	Converged  bool       `json:"converged"`
	BoundGap   float64    `json:"bound_gap"`
	Iterations int        `json:"iterations"`
}

type updateJSON struct {
	Edge   int64   `json:"edge"`
	Weight float64 `json:"weight"`
}

type updatesResponse struct {
	Epoch uint64 `json:"epoch"`
}

// httpAnswer is one /v1/ksp exchange.
type httpAnswer struct {
	q       query
	pos     int // the round's place in the cycle
	epoch   uint64
	latency time.Duration
	status  int
	err     error
	resp    queryResponse
}

// httpUpdate is one /v1/updates exchange.
type httpUpdate struct {
	latency time.Duration
	status  int
	err     error
	epoch   uint64
}

// trafficInputs are the fixed panels and batches of one cycle, with the
// weight table each batch leaves behind.
type trafficInputs struct {
	panels  [][]query
	batches [][]graph.WeightUpdate
	tables  [][]float64
}

// newTrafficInputs draws a cycle's panels around trafficHubs hotspot
// vertices and its stationary batches.
func newTrafficInputs(g *graph.Graph, w0 []float64) trafficInputs {
	hubRng := rand.New(rand.NewSource(trafficHubSeed))
	hubs := make([]graph.VertexID, trafficHubs)
	for i := range hubs {
		hubs[i] = graph.VertexID(hubRng.Intn(g.NumVertices()))
	}
	rng := rand.New(rand.NewSource(trafficInputSeed))
	var in trafficInputs
	for j := 0; j < trafficCycle; j++ {
		panel := make([]query, 0, trafficPanelSize)
		for len(panel) < trafficPanelSize {
			q := query{graph.VertexID(rng.Intn(g.NumVertices())), graph.VertexID(rng.Intn(g.NumVertices()))}
			if rng.Float64() < trafficHubShare {
				q.t = hubs[rng.Intn(len(hubs))]
			}
			if rng.Float64() < trafficSrcShare {
				q.s = hubs[rng.Intn(len(hubs))]
			}
			if q.s != q.t {
				panel = append(panel, q)
			}
		}
		in.panels = append(in.panels, panel)
		in.batches = append(in.batches, trafficBatch(rng, w0, trafficAlpha, trafficTau))
	}
	// The first batch resets what the later ones change, so the cycle's
	// tables do not depend on the cycles before it.
	set := map[graph.EdgeID]bool{}
	for _, u := range in.batches[0] {
		set[u.Edge] = true
	}
	for _, b := range in.batches[1:] {
		for _, u := range b {
			if !set[u.Edge] {
				set[u.Edge] = true
				in.batches[0] = append(in.batches[0], graph.WeightUpdate{Edge: u.Edge, NewWeight: w0[u.Edge]})
			}
		}
	}
	sort.Slice(in.batches[0], func(i, j int) bool { return in.batches[0][i].Edge < in.batches[0][j].Edge })
	w := w0
	for _, b := range in.batches {
		w = applyToTable(w, b)
		in.tables = append(in.tables, w)
	}
	return in
}

// runTraffic is the traffic-tiny workload: kspd's production shape behind
// the HTTP gateway, with rounds of one update batch followed by a panel of
// hotspot queries from a closed loop of readers.
func runTraffic(o options, rep *report) error {
	var tracer *trace.Tracer
	if o.traced {
		// Room for one round; the run collects each round's traces before
		// the next round starts.
		tracer = trace.New(trace.Options{Capacity: 2 * (trafficPanelSize + 1), SampleRate: 1})
	}
	d, err := repeatSetup(rep, func() (*httpDeployment, time.Duration, error) {
		start := time.Now()
		dep, err := deployCluster(trafficDataset, workload.ScaleTiny, trafficZ, 0)
		if err != nil {
			return nil, 0, err
		}
		gw := gateway.New(dep.srv, gateway.Options{
			Rate:           -1, // measuring the serving stack, not per-key admission
			DefaultTimeout: 30 * time.Second,
			Tracer:         tracer,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			dep.close()
			return nil, 0, err
		}
		hs := &http.Server{Handler: gw}
		go func() { _ = hs.Serve(ln) }()
		return &httpDeployment{deployment: dep, hs: hs, base: "http://" + ln.Addr().String()}, time.Since(start), nil
	}, func(d *httpDeployment) { d.hs.Close(); d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	defer d.hs.Close()
	g := d.b.ds.Graph
	in := newTrafficInputs(g, initialWeights(g))

	// One goroutine and one connection per CPU; the writer posts between
	// rounds, when no reader is running.
	readers := clients()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     readers,
		MaxIdleConnsPerHost: readers,
	}}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(o.seed))

	window := time.Duration(o.seconds) * time.Second
	var wal *walMeter
	if o.traced {
		wal = newWALMeter(d.dir)
	}
	queries, writes := newCostSet(), newCostSet()
	var collected uint64
	// collect adds the traces finished since the last call; with no request
	// in flight these are the newest ones.
	collect := func(cs *costSet) {
		if tracer == nil {
			return
		}
		for {
			started, kept := tracer.Stats()
			if kept == started {
				for _, v := range tracer.Snapshot(int(started - collected)) {
					cs.add(v)
				}
				collected = started
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	var answers []httpAnswer
	var updates []httpUpdate
	var views []*dtlp.IndexView // the view after each cycle, for the audit
	var rates []float64         // queries per second of each round
	var touched, changed []float64
	cpu := time.Duration(0) // spent while the rounds' queries ran
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < window; cycle++ {
		for pos := 0; pos < trafficCycle; pos++ {
			var prev *dtlp.IndexView
			if o.traced {
				prev = d.b.index.CurrentView()
				touched = append(touched, float64(d.b.index.PathsCrossing(in.batches[pos])))
			}
			u := postUpdate(client, d.base, in.batches[pos])
			updates = append(updates, u)
			if u.err != nil || u.status != http.StatusOK {
				return fmt.Errorf("update batch %d: status %d, %v", len(updates), u.status, u.err)
			}
			if u.epoch != uint64(len(updates)) {
				return fmt.Errorf("update batch %d acknowledged as epoch %d", len(updates), u.epoch)
			}
			if o.traced {
				wal.batch(len(in.batches[pos]))
				changed = append(changed, float64(skeletonChanges(prev, d.b.index.CurrentView())))
			}
			collect(writes)
			if pos == trafficCycle-1 {
				views = append(views, d.b.index.ViewAt(u.epoch))
			}

			panel := in.panels[pos]
			order := rng.Perm(len(panel))
			round := make([]httpAnswer, len(panel))
			var next int
			var mu sync.Mutex
			var wg sync.WaitGroup
			c0, t0 := cpuTime(), time.Now()
			for c := 0; c < readers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= len(order) {
							return
						}
						a := postQuery(client, d.base, panel[order[i]])
						a.pos, a.epoch = pos, u.epoch
						round[i] = a
					}
				}()
			}
			wg.Wait()
			cpu += cpuTime() - c0
			rates = append(rates, float64(len(panel))/time.Since(t0).Seconds())
			answers = append(answers, round...)
			collect(queries)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var lats, upLats []float64
	for _, a := range answers {
		lats = append(lats, ms(a.latency))
	}
	rep.set("workload.ops_per_s", median(rates))
	rep.cpuPerOp(ms(cpu) / float64(len(lats)))

	// Every update was acknowledged with the next epoch, or the run stopped.
	for _, u := range updates {
		upLats = append(upLats, ms(u.latency))
		rep.ok("update")
	}
	// The view after every cycle must match the cycle's last table.
	rg := newRoadGraph(g)
	auditRng := rand.New(rand.NewSource(o.seed + 2))
	for _, v := range views {
		rep.checked("audit", fmt.Sprintf("epoch %d", v.Epoch()), auditView(rg, v, in.tables[trafficCycle-1], auditRng))
	}

	type oracleKey struct {
		q   query
		pos int
	}
	oracle := map[oracleKey][]float64{}
	var iters []float64
	bounded := 0
	for _, a := range answers {
		switch {
		case a.err != nil:
			rep.fail("query", "error")
			continue
		case a.status != http.StatusOK:
			rep.fail("query", fmt.Sprintf("http_%d", a.status))
			continue
		case a.resp.Epoch != a.epoch:
			rep.violation("query", fmt.Sprintf("answer at epoch %d, issued at epoch %d", a.resp.Epoch, a.epoch))
			continue
		}
		key := oracleKey{a.q, a.pos}
		w := in.tables[a.pos]
		exact, ok := oracle[key]
		if !ok {
			exact = rg.yen(int32(a.q.s), int32(a.q.t), trafficK, w)
			oracle[key] = exact
		}
		rep.checked("query", fmt.Sprintf("%d->%d at epoch %d", a.q.s, a.q.t, a.epoch), rg.checkAnswer(int32(a.q.s), int32(a.q.t), trafficK, w, a.resp.answer(), exact))
		iters = append(iters, float64(a.resp.Iterations))
		if a.resp.BoundGap > 0 {
			bounded++
		}
	}
	if !o.traced {
		return nil
	}
	reportIndex(rep, d.b)
	nq := float64(len(answers))
	rep.set("core.iterations_p50", quantile(iters, 0.5))
	rep.set("core.iterations_p95", quantile(iters, 0.95))
	rep.set("core.bounded_answers", float64(bounded))
	st := d.srv.Stats()
	rep.set("serve.cache_hits", float64(st.CacheHits))
	rep.set("serve.coalesced", float64(st.Coalesced))
	bs := d.bp.BatchStats()
	rep.set("rpcbatch.batches", float64(bs.Batches))
	if bs.Batches > 0 {
		rep.set("rpcbatch.pairs_per_batch", float64(bs.PairsSent)/float64(bs.Batches))
	}
	rep.set("rpcbatch.dedup_hits", float64(bs.DedupHits))
	rep.set("rpcbatch.memo_hits", float64(bs.CacheHits))
	if pairs, err := d.workerPairs(); err == nil {
		rep.set("cluster.worker_pairs", float64(pairs)/nq)
	}
	rep.set("process.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/nq)
	rep.set("workload.op_p50_ms", median(lats))
	rep.set("workload.op_p95_ms", quantile(lats, 0.95))
	rep.set("workload.update_p50_ms", median(upLats))
	rep.set("workload.update_p95_ms", quantile(upLats, 0.95))
	rep.set("store.wal_bytes_per_edge_update", wal.perEdge())
	rep.set("dtlp.paths_touched_per_batch", mean(touched))
	rep.set("dtlp.pairs_changed_per_batch", mean(changed))
	reportQuerySpans(rep, queries)
	reportWriteSpans(rep, writes)
	// The traces cover every request of the run, so both means are over
	// the same queries.
	rep.set("gateway.overhead_ms_per_query", mean(lats)-queries.perOp("request"))
	return nil
}

func (r queryResponse) answer() answer {
	a := answer{converged: r.Converged, gap: r.BoundGap}
	for _, p := range r.Paths {
		a.paths = append(a.paths, p.Vertices)
		a.dists = append(a.dists, p.Distance)
	}
	return a
}

func postQuery(client *http.Client, base string, q query) httpAnswer {
	a := httpAnswer{q: q}
	body := fmt.Sprintf(`{"source":%d,"target":%d,"k":%d}`, q.s, q.t, trafficK)
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/ksp", "application/json", bytes.NewBufferString(body))
	if err != nil {
		a.err = err
		a.latency = time.Since(t0)
		return a
	}
	a.status = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.latency = time.Since(t0)
	if err != nil {
		a.err = err
		return a
	}
	if a.status == http.StatusOK {
		a.err = json.Unmarshal(data, &a.resp)
	}
	return a
}

func postUpdate(client *http.Client, base string, batch []graph.WeightUpdate) httpUpdate {
	var u httpUpdate
	req := struct {
		Updates []updateJSON `json:"updates"`
	}{}
	for _, x := range batch {
		req.Updates = append(req.Updates, updateJSON{Edge: int64(x.Edge), Weight: x.NewWeight})
	}
	body, err := json.Marshal(req)
	if err != nil {
		u.err = err
		return u
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		u.err = err
		u.latency = time.Since(t0)
		return u
	}
	u.status = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	u.latency = time.Since(t0)
	if err != nil {
		u.err = err
		return u
	}
	if u.status == http.StatusOK {
		var r updatesResponse
		u.err = json.Unmarshal(data, &r)
		u.epoch = r.Epoch
	}
	return u
}
