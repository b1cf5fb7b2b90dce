package main

import (
	"os"
	"path/filepath"

	"kspdg/internal/cluster"
	"kspdg/internal/graph"
	"kspdg/internal/partition"
	"kspdg/internal/rpcbatch"
	"kspdg/internal/serve"
	"kspdg/internal/store"
	"kspdg/internal/workload"
)

// dataRoot holds the WAL data directories, under the build directory the
// repository's .gitignore already excludes.
const dataRoot = ".bench_build/data"

// deployment is kspd's production shape in one process: a master serve
// layer over the DTLP index, standalone TCP workers on loopback reached
// through the batched transport, and a WAL store that fsyncs every batch.
type deployment struct {
	b       built
	servers []*cluster.Server
	remotes []*cluster.RemoteWorker
	bp      *cluster.BatchedRemoteProvider
	st      *store.Store
	dir     string
	srv     *serve.Server
}

// deployCluster builds the deployment for dataset name at scale with
// subgraph size z (0 = default), one worker per CPU.  snapshotEvery is the
// serve layer's snapshot cadence (0 = never after the bootstrap snapshot).
func deployCluster(name string, scale workload.Scale, z, snapshotEvery int) (*deployment, error) {
	b, err := buildIndex(name, scale, z)
	if err != nil {
		return nil, err
	}
	d := &deployment{b: b}
	nw := clients()
	for w := 0; w < nw; w++ {
		// A standalone worker derives its own copy of the network from the
		// dataset, as a kspd worker process does, and applies broadcast
		// batches to it.
		ds, err := workload.BuiltinDataset(name, scale)
		if err != nil {
			d.close()
			return nil, err
		}
		part, err := partition.PartitionGraph(ds.Graph, b.z)
		if err != nil {
			d.close()
			return nil, err
		}
		var owned []partition.SubgraphID
		for i := 0; i < part.NumSubgraphs(); i++ {
			if i%nw == w {
				owned = append(owned, partition.SubgraphID(i))
			}
		}
		worker := cluster.NewWorker(w, part, owned)
		worker.EnableLocalApply()
		srv, err := cluster.Serve("127.0.0.1:0", worker)
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		rw, err := cluster.DialPool(srv.Addr(), cluster.ClientOptions{PoolSize: 2})
		if err != nil {
			d.close()
			return nil, err
		}
		d.remotes = append(d.remotes, rw)
	}
	d.bp = cluster.NewBatchedRemoteProvider(d.remotes, rpcbatch.Options{})
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		d.close()
		return nil, err
	}
	d.dir, err = os.MkdirTemp(dataRoot, name+"-")
	if err != nil {
		d.close()
		return nil, err
	}
	d.st, err = store.Open(d.dir, store.Options{SyncEvery: 1})
	if err != nil {
		d.close()
		return nil, err
	}
	// WAL records need a base snapshot to be recoverable.
	if _, err := d.st.SaveSnapshot(b.index); err != nil {
		d.close()
		return nil, err
	}
	d.srv = serve.New(b.index, d.bp, serve.Options{
		Workers:       nw,
		Store:         d.st,
		SnapshotEvery: snapshotEvery,
		Broadcast: func(batch []graph.WeightUpdate) error {
			for _, rw := range d.remotes {
				if _, err := rw.ApplyUpdates(batch); err != nil {
					return err
				}
			}
			return nil
		},
	})
	return d, nil
}

// closeServing stops the serve layer, the transport and the workers, and
// closes the store, leaving the data directory in place.
func (d *deployment) closeServing() {
	if d.srv != nil {
		d.srv.Close()
		d.srv = nil
	}
	if d.bp != nil {
		d.bp.Close()
		d.bp = nil
	}
	for _, rw := range d.remotes {
		rw.Close()
	}
	d.remotes = nil
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
	if d.st != nil {
		d.st.Close()
		d.st = nil
	}
}

// close tears the deployment down and removes its data directory.
func (d *deployment) close() {
	d.closeServing()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// workerPairs is the number of pairs the workers have searched.
func (d *deployment) workerPairs() (int, error) {
	total := 0
	for _, rw := range d.remotes {
		st, err := rw.Stats()
		if err != nil {
			return 0, err
		}
		total += st.PairsServed
	}
	return total, nil
}

// walBytes is the total size of the WAL segments in dir.
func walBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var total int64
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// walMeter accumulates the WAL bytes appended per edge update, one batch at
// a time; a batch during which a snapshot rotated the WAL is skipped.
type walMeter struct {
	dir          string
	last         int64
	bytes, edges int64
}

func newWALMeter(dir string) *walMeter { return &walMeter{dir: dir, last: walBytes(dir)} }

// batch records one acknowledged batch of n edge updates.
func (m *walMeter) batch(n int) {
	now := walBytes(m.dir)
	if now > m.last {
		m.bytes += now - m.last
		m.edges += int64(n)
	}
	m.last = now
}

func (m *walMeter) perEdge() float64 {
	if m.edges == 0 {
		return 0
	}
	return float64(m.bytes) / float64(m.edges)
}
