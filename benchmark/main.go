// Command benchmark is kspdg's end-to-end benchmark.  It runs one named
// workload against the program's public packages for a fixed number of
// seconds, checks every answer against an oracle of its own, and prints the
// workload's metrics, one per line, followed by a one-line JSON summary:
//
//	go run . --workload static-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; --trace 1 runs the same
// workload with tracing on and prints the per-layer metrics instead.  See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"static-small": runStatic,
	"traffic-tiny": runTraffic,
	"ingest-small": runIngest,
}

// endToEnd lists the metrics an untraced run reports, with their units.
// Every workload reports all of them; "op" is the workload's measured
// operation (a query on the read workloads, an update batch on ingest-small).
// Client-observed latency is a traced figure (workload.op_p50_ms), not an
// end-to-end one: on a shared host that steals up to a third of the CPUs'
// time, more in one minute than in the next, the wall-clock time of the same
// code spreads further between runs than any bound could allow, while the
// CPU time it costs does not (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer lists the metrics a traced run reports.  A workload that does not
// exercise a layer reports zero for it.
var perLayer = []metricDef{
	{"partition.build_s", "s"},
	{"dtlp.build_s", "s"},
	{"dtlp.skeleton_vertices", "count"},
	{"dtlp.skeleton_fraction", "ratio"},
	{"dtlp.skeleton_edges", "count"},
	{"dtlp.bounding_paths", "count"},
	{"dtlp.ep_index_entries", "count"},
	{"dtlp.approx_mb", "MB"},
	{"dtlp.update_ms", "ms"},
	{"dtlp.paths_touched_per_batch", "count"},
	{"dtlp.pairs_changed_per_batch", "count"},
	{"core.iterations_p50", "count"},
	{"core.iterations_p95", "count"},
	{"core.candidates_per_query", "count"},
	{"core.filter_ms_per_query", "ms"},
	{"core.bounded_answers", "count"},
	{"core.pairs_refined_per_query", "count"},
	{"core.refine_wait_ms_per_query", "ms"},
	{"core.execute_ms_per_query", "ms"},
	{"core.self_ms_per_query", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p95", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.self_ms_per_query", "ms"},
	{"gateway.overhead_ms_per_query", "ms"},
	{"gateway.admission_ms", "ms"},
	{"gateway.validate_ms", "ms"},
	{"gateway.self_ms_per_query", "ms"},
	{"rpcbatch.batches", "count"},
	{"rpcbatch.pairs_per_batch", "count"},
	{"rpcbatch.dedup_hits", "count"},
	{"rpcbatch.memo_hits", "count"},
	{"rpcbatch.wait_ms", "ms"},
	{"rpcbatch.self_ms_per_query", "ms"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.worker_exec_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.pair_yen_ms", "ms"},
	{"cluster.worker_pairs", "count"},
	{"cluster.self_ms_per_query", "ms"},
	{"cluster.broadcast_ms", "ms"},
	{"store.wal_ms", "ms"},
	{"store.wal_bytes_per_edge_update", "B"},
	{"baseline.yen_p50_ms", "ms"},
	{"baseline.findksp_p50_ms", "ms"},
	{"process.alloc_kb_per_op", "KB"},
	{"workload.ops_per_s", "1/s"},
	{"workload.cpu_ms_per_op", "ms"},
	{"workload.op_p50_ms", "ms"},
	{"workload.op_p95_ms", "ms"},
	{"workload.update_p50_ms", "ms"},
	{"workload.update_p95_ms", "ms"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opCount tallies one operation type.
type opCount struct {
	attempted, failed int
	reasons           map[string]int
}

// report collects a run's operation outcomes and metrics.  It is safe for
// concurrent use.
type report struct {
	mu      sync.Mutex
	ops     map[string]*opCount
	wrong   []string // contract violations, for the log
	metrics map[string]float64
}

func newReport() *report {
	return &report{ops: map[string]*opCount{}, metrics: map[string]float64{}}
}

// ok records a successful operation of type typ.
func (r *report) ok(typ string) { r.outcome(typ, "") }

// fail records a failed operation; reason is the HTTP status, the error
// class, "truncated" or "contract".
func (r *report) fail(typ, reason string) { r.outcome(typ, reason) }

// violation records an operation whose output broke its contract: a failed
// operation that also makes the run incorrect.
func (r *report) violation(typ, detail string) {
	r.outcome(typ, "contract")
	r.mu.Lock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, typ+": "+detail)
	}
	r.mu.Unlock()
}

func (r *report) outcome(typ, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[typ]
	if c == nil {
		c = &opCount{reasons: map[string]int{}}
		r.ops[typ] = c
	}
	c.attempted++
	if reason != "" {
		c.failed++
		c.reasons[reason]++
	}
}

// checked records the outcome of checking one answer: err is nil for a
// correct answer, errNonConverged for a truncated one, anything else a
// contract violation, logged with what names the operation.
func (r *report) checked(typ, what string, err error) {
	switch {
	case err == nil:
		r.ok(typ)
	case err == errNonConverged:
		r.fail(typ, "truncated")
	default:
		r.violation(typ, what+": "+err.Error())
	}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// cpuPerOp records the CPU time per operation: end to end untraced, and as
// workload.cpu_ms_per_op traced, so the two runs give the tracing overhead.
func (r *report) cpuPerOp(v float64) {
	r.set("cpu_ms_per_op", v)
	r.set("workload.cpu_ms_per_op", v)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: static-small, traffic-tiny or ingest-small")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs with tracing on and reports per-layer metrics")
	flag.Parse()
	o.traced = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	out, err := rep.summarize(o.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// summarize prints the per-operation tallies and the metrics, and builds the
// summary line.  An untraced run must have produced every end-to-end metric.
func (r *report) summarize(traced bool) (summary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := summary{Correct: len(r.wrong) == 0, Metrics: map[string]metricValue{}}
	var types []string
	for t := range r.ops {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		c := r.ops[t]
		s.Attempted += c.attempted
		s.Failed += c.failed
		line := fmt.Sprintf("op %-16s attempted %7d failed %5d", t, c.attempted, c.failed)
		var reasons []string
		for why, n := range c.reasons {
			reasons = append(reasons, fmt.Sprintf("%s=%d", why, n))
		}
		sort.Strings(reasons)
		if len(reasons) > 0 {
			line += " (" + strings.Join(reasons, " ") + ")"
		}
		fmt.Println(line)
	}
	for _, w := range r.wrong {
		fmt.Println("wrong answer:", w)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !traced {
			return s, fmt.Errorf("workload produced no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("metric %-34s %14.4f %s\n", d.name, v, d.unit)
		s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if s.Attempted == 0 {
		return s, fmt.Errorf("no operation was attempted")
	}
	return s, nil
}

// setupRepeats is how many times a run builds its deployment: set-up time
// is the median of these, so one slow build does not move setup_s.
const setupRepeats = 5

// repeatSetup runs build setupRepeats times, tears down every deployment but
// the last, and records setup_s (the median) and setup_heap_mb (the live
// heap after the last build).  build returns its own elapsed set-up time so
// that it can exclude work done on the benchmark's behalf.
func repeatSetup[D any](rep *report, build func() (D, time.Duration, error), teardown func(D)) (D, error) {
	var d D
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(d)
		}
		runtime.GC()
		var el time.Duration
		var err error
		d, el, err = build()
		if err != nil {
			return d, err
		}
		times = append(times, el.Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("setup_s", median(times))
	rep.set("setup_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	return d, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// groupRate is the median over consecutive groups of n completions of the
// group's completions per second: unlike a count over the whole window, it
// does not move when the host steals the CPU for a few seconds of a run.
// done holds each completion's offset from the window's start, in order.
func groupRate(done []time.Duration, n int) float64 {
	var rates []float64
	prev := time.Duration(0)
	for i := n - 1; i < len(done); i += n {
		rates = append(rates, float64(n)/(done[i]-prev).Seconds())
		prev = done[i]
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clients is the number of load-generator goroutines and connections a
// workload may use in total.
func clients() int { return runtime.NumCPU() }

// cpuTime is the CPU time, user and system, the process has used so far.
// A guest kernel that accounts steal time does not charge a process for time
// the host took from its CPUs, so the difference between two readings
// measures the work done in between rather than how long the host made it
// wait.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
