package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"kspdg/internal/dtlp"
	"kspdg/internal/graph"
	"kspdg/internal/store"
	"kspdg/internal/trace"
	"kspdg/internal/workload"
)

// ingest-small parameters: stationary traffic batches touching a fifth of
// the small NY network's edges by up to ±30%, written by one closed-loop
// writer.  The serve layer snapshots every ingestSnapshotEvery batches, as
// a long-running master must to bound WAL replay; that also bounds the
// recovery the run ends with.
const (
	ingestAlpha         = 0.2
	ingestTau           = 0.3
	ingestSnapshotEvery = 100
	ingestAuditStep     = 25 // audit the index view of every 25th epoch
	ingestRateGroup     = 10 // batches per throughput sample
)

// runIngest is the ingest-small workload: the write path alone (DTLP
// maintenance, WAL, broadcast to TCP workers) driven by one closed-loop
// writer, ending with a recovery from the data directory.
func runIngest(o options, rep *report) error {
	d, err := repeatSetup(rep, func() (*deployment, time.Duration, error) {
		start := time.Now()
		dep, err := deployCluster("NY", workload.ScaleSmall, 0, ingestSnapshotEvery)
		return dep, time.Since(start), err
	}, func(d *deployment) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	g := d.b.ds.Graph
	w0 := initialWeights(g)
	rg := newRoadGraph(g)
	rng := rand.New(rand.NewSource(o.seed))
	auditRng := rand.New(rand.NewSource(o.seed + 2))
	var tracer *trace.Tracer
	if o.traced {
		tracer = trace.New(trace.Options{SampleRate: -1})
	}

	table := w0
	var lats, touched, changed []float64
	var at []time.Duration
	cpu := time.Duration(0) // spent inside the update calls
	acked := uint64(0)
	writes := newCostSet()
	wal := newWALMeter(d.dir)
	window := time.Duration(o.seconds) * time.Second
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < window {
		batch := trafficBatch(rng, w0, ingestAlpha, ingestTau)
		var prev *dtlp.IndexView
		if o.traced {
			prev = d.b.index.CurrentView()
			touched = append(touched, float64(d.b.index.PathsCrossing(batch)))
		}
		tr, root := tracer.StartTrace("bench_update")
		ctx := trace.NewContext(context.Background(), root)
		c0, t0 := cpuTime(), time.Now()
		epoch, err := d.srv.ApplyUpdatesEpochCtx(ctx, batch)
		lat := time.Since(t0)
		cpu += cpuTime() - c0
		tr.Finish()
		if err != nil {
			rep.fail("update", "error")
			break
		}
		if epoch != acked+1 {
			rep.violation("update", fmt.Sprintf("batch %d acknowledged as epoch %d", acked+1, epoch))
			break
		}
		acked++
		lats = append(lats, ms(lat))
		at = append(at, time.Since(start))
		table = applyToTable(table, batch)
		if tr != nil {
			writes.add(tr.View())
			changed = append(changed, float64(skeletonChanges(prev, d.b.index.CurrentView())))
			wal.batch(len(batch))
		}
		if epoch%ingestAuditStep == 0 {
			if err := auditView(rg, d.b.index.CurrentView(), table, auditRng); err != nil {
				rep.violation("update", err.Error())
				continue
			}
		}
		rep.ok("update")
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if len(lats) == 0 {
		return fmt.Errorf("no update batch was acknowledged")
	}
	rep.set("workload.ops_per_s", groupRate(at, ingestRateGroup))
	rep.cpuPerOp(ms(cpu) / float64(len(lats)))
	rep.checked("audit", "final view", auditView(rg, d.b.index.CurrentView(), table, auditRng))

	if o.traced {
		reportIndex(rep, d.b)
		reportWriteSpans(rep, writes)
		rep.set("dtlp.paths_touched_per_batch", mean(touched))
		rep.set("dtlp.pairs_changed_per_batch", mean(changed))
		rep.set("process.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(lats)))
		rep.set("workload.op_p50_ms", median(lats))
		rep.set("workload.op_p95_ms", quantile(lats, 0.95))
		rep.set("workload.update_p50_ms", median(lats))
		rep.set("workload.update_p95_ms", quantile(lats, 0.95))
		rep.set("store.wal_bytes_per_edge_update", wal.perEdge())
	}

	// A fresh index recovered from the data directory must continue exactly
	// where the acknowledged batches left off.
	d.closeServing()
	rep.checked("recover", d.dir, recoverAndCompare(d.dir, acked, table))
	return nil
}

// skeletonChanges counts skeleton edges whose weight differs between two
// views of the same skeleton.
func skeletonChanges(a, b *dtlp.IndexView) int {
	if a == nil || b == nil {
		return 0
	}
	wa, wb := a.SkeletonWeights(), b.SkeletonWeights()
	n := 0
	for e := 0; e < wb.NumEdges(); e++ {
		if wa.Weight(graph.EdgeID(e)) != wb.Weight(graph.EdgeID(e)) {
			n++
		}
	}
	return n
}

// recoverAndCompare recovers the index from dir and checks its epoch and
// every edge weight against the final acknowledged state.
func recoverAndCompare(dir string, epoch uint64, table []float64) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	rec, err := st.Recover()
	if err != nil {
		return err
	}
	if rec.Epoch != epoch {
		return fmt.Errorf("recovered epoch %d, acknowledged %d", rec.Epoch, epoch)
	}
	v := rec.Index.CurrentView()
	for e, w := range table {
		if got := v.GlobalWeight(graph.EdgeID(e)); got != w {
			return fmt.Errorf("recovered edge %d weighs %v, acknowledged %v", e, got, w)
		}
	}
	return nil
}
