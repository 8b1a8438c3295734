// Command servebench is the repository's serving benchmark. It boots an
// in-process fleet (internal/fleet: 2 shards, 2 workers each, M=64) behind
// a real TCP listener and drives one of three closed-loop workloads
// against it with one client per CPU. Every received join is compared with
// relation.ReferenceJoin of its inputs, and at every fleet shutdown the
// coprocessor transfers are compared with the closed forms summed over the
// executions the fleet ran. It prints each metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced window and layer replay (--trace 1). A wrong result, a
// failed execution or a gate mismatch makes it exit with status 1.
//
// run.sh builds it from source and runs it from the repository root:
//
//	bash servebench/run.sh --workload small-contracts --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart stands in for the process's start: package variables are
// initialised before main runs.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	clients  int
	setups   int
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "small-contracts, large-equijoin or durable-rerun")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every contract and relation is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced window and layer replay and reports per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for store directories and the span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	// One client per CPU; setup_s is the median of five set-ups.
	o.clients, o.setups = runtime.NumCPU(), 5
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	// A run that hangs must still end, and without printing a result.
	limit := 130*time.Second + 2*seconds(o.seconds)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	rep, err := run(workloads[o.workload], o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric units.
const (
	unitMs    = "ms"
	unitS     = "s"
	unitCount = "count"
	unitFrac  = "fraction"
)

// run executes one run of w, printing every metric to out, and returns
// the final report. An error means the run could not be carried out at
// all; failed executions and gates only make the report incorrect.
func run(w workload, o options, out io.Writer) (*report, error) {
	b := &bench{w: w, gen: generator{w: w, seed: o.seed}, clients: o.clients}
	b.lastReg.Store(-1)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	e2e := map[string]metric{}
	layers := map[string]metric{}

	// Set-up: boot a fleet (on a fresh store directory for durable
	// workloads) and run the fixed warm-up. The last set-up carries on into
	// the timed window.
	var setups []time.Duration
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for k := 0; k < o.setups; k++ {
		t0 := processStart
		if k > 0 {
			runtime.GC() // as in restart: a fresh process has no garbage
			t0 = time.Now()
		}
		if w.durable {
			dir, err := os.MkdirTemp(o.workdir, "store-")
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, dir)
			b.dataDir = dir
			b.dirExecs.Store(0)
			b.dirInput.Store(0)
		}
		b.next.Store(0)
		b.lastReg.Store(-1)
		in, err := b.boot()
		if err != nil {
			return nil, err
		}
		b.cur = in
		b.clientsRun(time.Now().Add(time.Hour), w.warmup, nil)
		setups = append(setups, time.Since(t0))
		if k < o.setups-1 {
			_, err := b.stop(in)
			b.check(err)
		}
	}
	e2e["setup_s"] = metric{median(setups).Seconds(), unitS}

	// An in-memory fleet recovers nothing, so half its restarts run here and
	// half after the window, which spreads them over as much of the run as
	// the window covers; a durable fleet restarts after the window, on the
	// store the window populated.
	var recoveries []time.Duration
	if !w.durable {
		recoveries = b.restarts((w.restarts+1)/2, w.recovery/2)
	}

	// The untraced window gives the end-to-end numbers.
	win := b.timed(seconds(o.seconds))
	if b.cur == nil {
		return nil, errNoFleet
	}
	n := len(win.lat)
	if n == 0 {
		return nil, fmt.Errorf("no execution completed in the %gs window", o.seconds)
	}
	jps := float64(n) / win.elapsed.Seconds()
	tail, tailPct := tailOf(win.lat)
	e2e["joins_per_s"] = metric{jps, "1/s"}
	e2e["latency_p50_ms"] = metric{millis(win.lat[n/2]), unitMs}
	e2e["latency_tail_ms"] = metric{millis(tail), unitMs}
	e2e["cpu_ms_per_join"] = metric{millis(win.cpu) / float64(n), unitMs}

	// The traced window runs on a freshly booted fleet so the fleet's own
	// counters cover exactly the traced executions.
	var tr *tracer
	if o.trace {
		b.mu.Lock()
		_, err := b.stop(b.cur)
		b.check(err)
		b.acc = &layerAcc{}
		in, err := b.boot()
		if err != nil {
			b.mu.Unlock()
			return nil, err
		}
		b.cur = in
		tr = newTracer()
		b.tr = tr
		b.mu.Unlock()
		twin := b.timed(seconds(o.seconds))
		b.tr = nil
		if b.cur == nil {
			return nil, errNoFleet
		}
		if len(twin.lat) == 0 {
			return nil, fmt.Errorf("no execution completed in the traced window")
		}
		tjps := float64(len(twin.lat)) / twin.elapsed.Seconds()
		layers["trace_overhead_frac"] = metric{1 - tjps/jps, unitFrac}
		layers["traced.joins"] = metric{float64(len(twin.lat)), unitCount}
		for _, name := range []string{"fleet.register", "service.handshake", "service.upload", "server.wait", "service.deliver"} {
			layers[name+"_ms"] = metric{tr.meanMillis(name), unitMs}
		}
		layers["service.wire_bytes_per_join"] = metric{float64(tr.wire.Load()) / float64(len(twin.lat)), "bytes"}
	}

	// Stop the window's fleet; an in-memory store is measured here.
	b.mu.Lock()
	snap, err := b.stop(b.cur)
	b.check(err)
	if !w.durable {
		stored := float64(snap.Fleet.ResultStoreBytes + snap.Fleet.SortCacheBytes)
		e2e["store_bytes_per_input_byte"] = metric{stored / float64(b.cur.inputBytes.Load()), unitFrac}
		layers["resultstore.bytes_per_join"] = metric{float64(snap.Fleet.ResultStoreBytes) / float64(b.cur.execs.Load()), "bytes"}
		layers["wal.records_per_join"] = metric{0, unitCount}
		layers["wal.bytes_per_join"] = metric{0, "bytes"}
	}
	if acc := b.acc; acc != nil {
		wait := layers["server.wait_ms"].Value
		run := 0.0
		if acc.runs > 0 {
			run = acc.runMillis / float64(acc.runs)
		}
		layers["server.run_ms"] = metric{run, unitMs}
		layers["server.queue_wait_ms"] = metric{wait - run, unitMs}
		lookups := acc.hits + acc.misses
		ratio := 0.0
		if lookups > 0 {
			ratio = float64(acc.hits) / float64(lookups)
		}
		layers["server.sort_cache_hit_ratio"] = metric{ratio, unitFrac}
		layers["server.sort_cache_lookups"] = metric{float64(lookups), unitCount}
		b.acc = nil
	}

	b.cur = nil
	b.mu.Unlock()

	if w.durable {
		recoveries = b.restarts(w.restarts, w.recovery)
	} else {
		recoveries = append(recoveries, b.restarts((w.restarts+1)/2, w.recovery/2)...)
	}
	if b.cur != nil {
		_, err := b.stop(b.cur)
		b.check(err)
	}
	if len(recoveries) > 0 {
		sorted := append([]time.Duration(nil), recoveries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n := len(sorted)
		e2e["recovery_s"] = metric{sorted[n/2].Seconds(), unitS}
		fmt.Fprintf(out, "recovery: %d restarts, min %v, quartiles %v %v %v, max %v\n",
			n, sorted[0], sorted[n/4], sorted[n/2], sorted[3*n/4], sorted[n-1])
	}

	if w.durable {
		st, err := storeSizes(b.dataDir)
		if err != nil {
			return nil, err
		}
		execs := float64(b.dirExecs.Load())
		e2e["store_bytes_per_input_byte"] = metric{float64(st.total) / float64(b.dirInput.Load()), unitFrac}
		layers["wal.records_per_join"] = metric{float64(st.walRecords) / execs, unitCount}
		layers["wal.bytes_per_join"] = metric{float64(st.walBytes) / execs, "bytes"}
		layers["resultstore.bytes_per_join"] = metric{float64(st.results) / execs, "bytes"}
	}
	e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	if o.trace {
		rm, err := replayLayers(w, b.gen, time.Second)
		b.check(err)
		for k, v := range rm {
			layers[k] = v
		}
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
		if err := tr.writeJSON(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}

	attempted, failed := b.attempted.Load(), b.failed.Load()
	fmt.Fprintf(out, "servebench %s seed %d: %d clients, %gs window, %d executions in the window\n",
		w.name, o.seed, o.clients, o.seconds, n)
	fmt.Fprintf(out, "latency tail is p%.2f of %d samples\n", tailPct, n)
	fmt.Fprintf(out, "failed_frac %g fraction (%d of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, e := range b.errs {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	printMetrics(out, e2e)
	if o.trace {
		printMetrics(out, layers)
	}
	rep := &report{Correct: failed == 0 && b.gateFailures.Load() == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if o.trace {
		rep.Metrics = layers
	}
	return rep, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// tailOf returns the highest percentile of sorted that has at least ten
// samples beyond it, and that percentile; with fewer than eleven samples
// it is the maximum.
func tailOf(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n < 11 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}
