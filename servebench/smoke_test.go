package main

import (
	"io"
	"strings"
	"testing"

	"ppj/internal/relation"
)

// tiny shrinks a workload so a whole run, traced window and layer replay
// included, takes a few seconds.
func tiny(w workload) workload {
	w.rows = min(w.rows, 16)
	w.keySpace = min(w.keySpace, 8)
	w.warmup = 1
	w.restarts = 1
	w.replay = 1
	return w
}

func tinyOptions(t *testing.T) options {
	return options{seed: 3, seconds: 0.4, trace: true, workdir: t.TempDir(), clients: 2, setups: 1}
}

// TestSmokeAllWorkloads runs every workload at tiny sizes, traced, and
// requires the correctness and transfer gates (and, on durable-rerun, the
// durability check) to pass.
func TestSmokeAllWorkloads(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(tiny(w), tinyOptions(t), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, want := range []string{"trace_overhead_frac", "server.run_ms", "core.transfers_per_join", "secop.verify_us"} {
				if _, ok := rep.Metrics[want]; !ok {
					t.Errorf("traced run is missing %s", want)
				}
			}
			if w.durable {
				if r := rep.Metrics["server.sort_cache_hit_ratio"].Value; r <= 0 {
					t.Errorf("durable sort-cache hit ratio %g, want resubmissions to hit", r)
				}
				if r := rep.Metrics["wal.records_per_join"].Value; r <= 0 {
					t.Errorf("durable run logged %g WAL records per join", r)
				}
			}
		})
	}
}

// bootTiny boots a fleet for a tiny in-memory alg7 workload.
func bootTiny(t *testing.T) (*bench, *instance) {
	t.Helper()
	w := tiny(workloads["large-equijoin"])
	b := &bench{w: w, gen: generator{w: w, seed: 5}, clients: 1}
	in, err := b.boot()
	if err != nil {
		t.Fatal(err)
	}
	b.cur = in
	return b, in
}

// TestTransferGateCatchesMismatch: a fleet whose transfers differ from the
// closed forms by one cell fails the gate.
func TestTransferGateCatchesMismatch(t *testing.T) {
	b, in := bootTiny(t)
	cw, err := b.gen.work(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.execute(in, cw, 0); err != nil {
		t.Fatal(err)
	}
	in.transfers.Add(1)
	if _, err := b.stop(in); err == nil || !strings.Contains(err.Error(), "transfer gate") {
		t.Fatalf("stop with a skewed expectation returned %v, want a transfer gate error", err)
	}
}

// TestCorrectnessGateCatchesWrongResult: a delivery that differs from the
// reference join fails its execution.
func TestCorrectnessGateCatchesWrongResult(t *testing.T) {
	b, in := bootTiny(t)
	cw, err := b.gen.work(0)
	if err != nil {
		t.Fatal(err)
	}
	// Same size, so only the result check (not the closed form) can fail.
	wrong := relation.NewRelation(cw.want.Schema)
	for _, row := range cw.want.Rows {
		wrong.MustAppend(append(relation.Tuple(nil), row...))
	}
	wrong.Rows[0][1] = relation.IntValue(-1)
	cw.want = wrong
	if _, err := b.execute(in, cw, 0); err == nil || !strings.Contains(err.Error(), "wrong result") {
		t.Fatalf("execute against a tampered reference returned %v, want a wrong-result error", err)
	}
	if _, err := b.stop(in); err != nil {
		t.Fatal(err)
	}
}
