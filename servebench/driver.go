package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppj/internal/core"
	"ppj/internal/fleet"
	"ppj/internal/relation"
	"ppj/internal/server"
	"ppj/internal/service"
)

// memory is the coprocessor free memory M every shard runs with.
const memory = 64

var errNoFleet = errors.New("no fleet is running: its boot failed")

// fleetConfig is the fleet every workload runs against: 2 shards with 2
// workers each and M=64, the settings cmd/ppjload uses.
func fleetConfig(dataDir string) fleet.Config {
	return fleet.Config{Config: server.Config{
		Shards:     2,
		Workers:    2,
		QueueDepth: 32,
		Memory:     memory,
		DataDir:    dataDir,
	}}
}

// instance is one booted fleet behind its own TCP listener, with the
// closed-form expectations of every execution run on it.
type instance struct {
	rt     *fleet.Router
	ln     net.Listener
	served chan error
	base   fleet.Snapshot // metrics right after boot
	acc    *layerAcc      // folds this fleet's metrics into the traced window

	transfers, hits, misses atomic.Uint64
	execs, inputBytes       atomic.Int64
}

// layerAcc collects fleet metric deltas over the traced window.
type layerAcc struct {
	runMillis    float64 // sum of run times
	runs         uint64
	hits, misses uint64
}

// fold adds the growth from base to final of one fleet's counters.
func (a *layerAcc) fold(base, final fleet.Snapshot) {
	for alg, f := range final.Fleet.Algorithms {
		b := base.Fleet.Algorithms[alg]
		a.runMillis += f.AvgMillis*float64(f.Completed) - b.AvgMillis*float64(b.Completed)
		a.runs += f.Completed - b.Completed
	}
	a.hits += final.Fleet.SortCacheHits - base.Fleet.SortCacheHits
	a.misses += final.Fleet.SortCacheMisses - base.Fleet.SortCacheMisses
}

// bench is one run of one workload.
type bench struct {
	w       workload
	gen     generator
	clients int
	dataDir string // current set-up's store directory (durable workloads)
	acc     *layerAcc

	mu  sync.RWMutex // held shared by every execution, exclusively by a restart
	cur *instance

	next    atomic.Int64 // next contract to hand out
	lastReg atomic.Int64 // a contract whose first execution completed, or -1

	attempted, failed atomic.Int64 // executions
	gateFailures      atomic.Int64
	errMu             sync.Mutex
	errs              []string

	tr *tracer // set only for the traced window

	dirExecs, dirInput atomic.Int64 // executions and plaintext bytes against dataDir
}

// fail records a failed execution.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.report(err)
}

// check records a failed gate, if err is one.
func (b *bench) check(err error) {
	if err != nil {
		b.gateFailures.Add(1)
		b.report(err)
	}
}

// report keeps the first few errors for the output.
func (b *bench) report(err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, err.Error())
	}
}

// boot starts a fleet on the current store directory.
func (b *bench) boot() (*instance, error) {
	rt, err := fleet.New(fleetConfig(b.dataDir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = shutdown(rt) // the listen error is the one to report
		return nil, err
	}
	in := &instance{rt: rt, ln: ln, served: make(chan error, 1), base: rt.MetricsSnapshot(), acc: b.acc}
	go func() { in.served <- rt.Serve(ln) }()
	return in, nil
}

func shutdown(rt *fleet.Router) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return rt.Shutdown(ctx)
}

// stop drains the fleet and applies the transfer gate: the coprocessor
// transfers the fleet reports must equal the closed forms summed over the
// executions run on it, and its sort-cache hits and misses the pattern the
// benchmark expects.
func (b *bench) stop(in *instance) (fleet.Snapshot, error) {
	err := shutdown(in.rt)
	in.ln.Close()
	if serr := <-in.served; err == nil {
		err = serr
	}
	snap := in.rt.MetricsSnapshot()
	if err != nil {
		return snap, fmt.Errorf("shutting the fleet down: %w", err)
	}
	if in.acc != nil {
		in.acc.fold(in.base, snap)
	}
	got, want := snap.Fleet.Coprocessor.Transfers(), in.transfers.Load()
	if got != want {
		return snap, fmt.Errorf("transfer gate: fleet moved %d cells over %d executions, closed forms sum to %d",
			got, in.execs.Load(), want)
	}
	hits := snap.Fleet.SortCacheHits - in.base.Fleet.SortCacheHits
	misses := snap.Fleet.SortCacheMisses - in.base.Fleet.SortCacheMisses
	if hits != in.hits.Load() || misses != in.misses.Load() {
		return snap, fmt.Errorf("transfer gate: sort cache saw %d hits/%d misses, expected %d/%d",
			hits, misses, in.hits.Load(), in.misses.Load())
	}
	return snap, nil
}

// execute runs one execution of cw on in: Register (round 0) or Resubmit,
// then provider A's upload, provider B's upload, and the recipient's
// receipt, each on its own connection, one after another. It returns the
// time from registration to result receipt, and an error for any failed
// step or a result that differs from the reference join.
func (b *bench) execute(in *instance, cw *contractWork, round int) (time.Duration, error) {
	tr := b.tr
	trace, root := tr.newID(), tr.newID()
	c := cw.contract
	begin := time.Now()
	var (
		job *server.Job
		err error
	)
	if round == 0 {
		job, err = in.rt.Register(c)
	} else {
		job, err = in.rt.Resubmit(c.ID)
	}
	tr.record("fleet.register", trace, tr.newID(), root, begin, time.Now())
	if err != nil {
		return 0, fmt.Errorf("contract %d round %d: register: %w", cw.n, round, err)
	}
	_, sh, err := in.rt.ShardFor(c.ID)
	if err != nil {
		return 0, err
	}
	deviceKey := sh.Device().DeviceKey()
	addr := in.ln.Addr().String()
	connect := func(k int, name string, role service.Role) (net.Conn, *service.ClientSession, error) {
		conn, err := tr.dial(addr)
		if err != nil {
			return nil, nil, err
		}
		cl := &service.Client{Name: name, Identity: cw.keys[k], DeviceKey: deviceKey, Expected: service.ExpectedStack()}
		start := time.Now()
		cs, err := cl.ConnectJob(conn, role, c.ID, job.ID())
		tr.record("service.handshake", trace, tr.newID(), root, start, time.Now())
		if err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("contract %d round %d: %s handshake: %w", cw.n, round, name, err)
		}
		return conn, cs, nil
	}
	for k, rel := range []*relation.Relation{cw.a, cw.b} {
		name := []string{partyA, partyB}[k]
		conn, cs, err := connect(k, name, service.RoleProvider)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = cs.SubmitRelation(c.ID, rel)
		tr.record("service.upload", trace, tr.newID(), root, start, time.Now())
		conn.Close()
		if err != nil {
			return 0, fmt.Errorf("contract %d round %d: %s upload: %w", cw.n, round, name, err)
		}
	}
	conn, cs, err := connect(2, partyRecip, service.RoleRecipient)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	up := time.Now()
	var settledAt chan time.Time
	if tr != nil {
		settledAt = make(chan time.Time, 1)
		go func() {
			<-job.Settled()
			settledAt <- time.Now()
		}()
	}
	res, err := cs.ReceiveResult()
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("contract %d round %d: receive: %w", cw.n, round, err)
	}
	if tr != nil {
		settled := <-settledAt
		tr.record("server.wait", trace, tr.newID(), root, up, settled)
		tr.record("service.deliver", trace, tr.newID(), root, settled, end)
		tr.record("execution", trace, root, 0, begin, end)
	}

	// The join ran: charge its closed form whatever the result says.
	s := int64(cw.want.Len())
	rows := int64(b.w.rows)
	switch b.w.alg {
	case "alg5":
		in.transfers.Add(uint64(core.Join5Transfers([]int64{rows, rows}, s, memory)))
	case "alg7":
		// Every Resubmit uploads byte-identical relations, so both sides
		// hit; a first execution misses both.
		hit := round > 0
		in.transfers.Add(uint64(core.Join7CachedTransfers(rows, rows, s, hit, hit)))
		if hit {
			in.hits.Add(2)
		} else {
			in.misses.Add(2)
		}
	}
	in.execs.Add(1)
	in.inputBytes.Add(cw.inputBytes)
	b.dirExecs.Add(1)
	b.dirInput.Add(cw.inputBytes)

	if !relation.SameMultiset(res, cw.want) {
		return 0, fmt.Errorf("contract %d round %d: wrong result: %d rows, reference join has %d", cw.n, round, res.Len(), cw.want.Len())
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		return 0, fmt.Errorf("contract %d round %d: job %s never reached Delivered", cw.n, round, job.ID())
	}
	return end.Sub(begin), nil
}

// latencies collects execution latencies from concurrent clients.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// sorted returns the samples in ascending order.
func (l *latencies) sorted() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]time.Duration(nil), l.d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runOne runs one execution on the current fleet and accounts for it.
func (b *bench) runOne(cw *contractWork, round int, lat *latencies) {
	b.mu.RLock()
	d, err := time.Duration(0), errNoFleet
	if b.cur != nil {
		d, err = b.execute(b.cur, cw, round)
	}
	b.mu.RUnlock()
	b.attempted.Add(1)
	if err != nil {
		b.fail(err)
		return
	}
	if round == 0 {
		b.lastReg.Store(int64(cw.n))
	}
	if lat != nil {
		lat.add(d)
	}
}

// loop is one closed-loop client: it takes the next contract and runs its
// executions one after another, until the deadline passes or it has run
// max contracts (max <= 0: no limit).
func (b *bench) loop(deadline time.Time, max int, lat *latencies) {
	for k := 0; (max <= 0 || k < max) && time.Now().Before(deadline); k++ {
		cw, err := b.gen.work(int(b.next.Add(1) - 1))
		if err != nil {
			b.attempted.Add(1)
			b.fail(err)
			return
		}
		for round := 0; round < b.w.rounds; round++ {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			b.runOne(cw, round, lat)
		}
	}
}

// clientsRun runs the closed loop on every client and waits for them.
func (b *bench) clientsRun(deadline time.Time, max int, lat *latencies) {
	var wg sync.WaitGroup
	for i := 0; i < b.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.loop(deadline, max, lat)
		}()
	}
	wg.Wait()
}

// window is one timed stretch of the closed loop.
type window struct {
	elapsed time.Duration
	lat     []time.Duration // sorted
	cpu     time.Duration   // process user+sys CPU
}

// timed runs the closed loop for d. Durable workloads restart the fleet at
// the midpoint; the restart and its probe execution are part of the window.
func (b *bench) timed(d time.Duration) *window {
	var lat latencies
	cpu0 := cpuTime()
	start := time.Now()
	restarted := make(chan struct{})
	if b.w.durable {
		go func() {
			defer close(restarted)
			time.Sleep(d / 2)
			b.restart(&lat)
		}()
	} else {
		close(restarted)
	}
	b.clientsRun(start.Add(d), 0, &lat)
	<-restarted
	return &window{elapsed: time.Since(start), lat: lat.sorted(), cpu: cpuTime() - cpu0}
}

// restarts restarts the fleet at least count times and until budget has
// passed, and returns the times restart reported for the ones that
// succeeded.
func (b *bench) restarts(count int, budget time.Duration) []time.Duration {
	var d []time.Duration
	start := time.Now()
	for r := 0; r < count || time.Since(start) < budget; r++ {
		if t := b.restart(nil); t > 0 {
			d = append(d, t)
		}
	}
	return d
}

// restart stops the current fleet, if any (applying its transfer gate),
// boots a new one on the same store, and runs one execution on it. It
// returns the time from boot until that execution's result arrived, or 0
// if it failed.
//
// On a durable store the execution resubmits a contract registered before
// the restart, and the durability check requires it to be served warm from
// the recovered sort cache and to return the reference join. An in-memory
// fleet recovers nothing, so its first execution is a fresh contract.
func (b *bench) restart(lat *latencies) time.Duration {
	n, round := int(b.lastReg.Load()), 1
	if !b.w.durable {
		n, round = int(b.next.Add(1)-1), 0
	}
	if n < 0 {
		b.check(errors.New("restart: no contract was registered before the restart"))
		return 0
	}
	cw, err := b.gen.work(n)
	if err != nil {
		b.check(err)
		return 0
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		_, err := b.stop(b.cur)
		b.check(err)
		b.cur = nil
	}
	// A restarted process starts with an empty heap; collecting the old
	// fleet's garbage keeps the boot from racing a collection of it.
	runtime.GC()
	t0 := time.Now()
	in, err := b.boot()
	if err != nil {
		b.check(fmt.Errorf("restart: %w", err))
		return 0
	}
	b.cur = in
	before := in.rt.MetricsSnapshot().Fleet
	booted := time.Since(t0)
	b.attempted.Add(1)
	d, err := b.execute(in, cw, round)
	if err != nil {
		b.fail(err)
		return 0
	}
	if b.w.durable {
		after := in.rt.MetricsSnapshot().Fleet
		hits, misses := after.SortCacheHits-before.SortCacheHits, after.SortCacheMisses-before.SortCacheMisses
		if hits != 2 || misses != 0 {
			b.fail(fmt.Errorf("durability check: resubmitting contract %d after the restart hit the sort cache %d times and missed %d, want 2 hits", n, hits, misses))
			return 0
		}
	}
	if lat != nil {
		lat.add(d)
	}
	return booted + d
}
