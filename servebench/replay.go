package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ppj/internal/core"
	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/service"
	"ppj/internal/sim"
)

// mapCache is an in-memory core.SortedCache for the layer replay.
type mapCache map[string][][]byte

func (m mapCache) Lookup(key string) ([][]byte, bool) { c, ok := m[key]; return c, ok }
func (m mapCache) Store(key string, cells [][]byte)   { m[key] = cells }

// joinRun is one replayed join: its timings and the coprocessor's counts.
type joinRun struct {
	load, join  time.Duration
	stats       sim.Stats
	traceEvents uint64
	allocs      uint64
}

// replayJoin mirrors service.runJoin for one contract: a fresh host and
// coprocessor with the server's M, both relations loaded with
// sim.LoadTable, then core.Join5 (alg5) or core.Join7Cached (alg7) against
// cache. The output is decrypted and compared with the reference join.
func replayJoin(w workload, cw *contractWork, sealer sim.Sealer, cache mapCache, seed uint64) (joinRun, error) {
	var r joinRun
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: memory, Sealer: sealer, Seed: seed})
	if err != nil {
		return r, err
	}
	start := time.Now()
	tabA, err := sim.LoadTable(host, cop.Sealer(), partyA, cw.a)
	if err != nil {
		return r, err
	}
	tabB, err := sim.LoadTable(host, cop.Sealer(), partyB, cw.b)
	if err != nil {
		return r, err
	}
	r.load = time.Since(start)
	pred, err := relation.NewEqui(cw.a.Schema, "key", cw.b.Schema, "key")
	if err != nil {
		return r, err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	events0 := host.Trace().Count() + cop.Trace().Count()
	start = time.Now()
	var res core.Result
	switch w.alg {
	case "alg5":
		res, err = core.Join5(cop, []sim.Table{tabA, tabB}, relation.Pairwise(pred))
	case "alg7":
		res, _, err = core.Join7Cached(cop, tabA, tabB, pred, cache, "A", "B")
	default:
		err = fmt.Errorf("replay: unknown algorithm %q", w.alg)
	}
	r.join = time.Since(start)
	if err != nil {
		return r, err
	}
	r.traceEvents = host.Trace().Count() + cop.Trace().Count() - events0
	runtime.ReadMemStats(&ms)
	r.allocs = ms.Mallocs - allocs0
	r.stats = res.Stats

	got, err := core.DecodeOutput(cop, res)
	if err != nil {
		return r, err
	}
	if !relation.SameMultiset(got, cw.want) {
		return r, fmt.Errorf("replay: contract %d: %d rows, reference join has %d", cw.n, got.Len(), cw.want.Len())
	}
	return r, nil
}

// replayLayers re-runs the joins of the workload's first w.replay
// contracts outside the server, timing each layer's public functions, and
// returns the per-layer metrics. The sample is replayed in passes until
// at least minTime of cold joins has been measured.
func replayLayers(w workload, gen generator, minTime time.Duration) (map[string]metric, error) {
	works := make([]*contractWork, w.replay)
	for i := range works {
		cw, err := gen.work(i)
		if err != nil {
			return nil, err
		}
		works[i] = cw
	}
	var (
		load, cold, warm, plain time.Duration
		loads, joins            int
		transfers, comparisons  uint64
		events, allocs          uint64
	)
	for pass := 0; pass == 0 || cold < minTime; pass++ {
		for i, cw := range works {
			ocbSealer, err := sim.NewRandomOCBSealer()
			if err != nil {
				return nil, err
			}
			seed := uint64(i + 1)
			cache := mapCache{}
			c, err := replayJoin(w, cw, ocbSealer, cache, seed)
			if err != nil {
				return nil, err
			}
			// Warm: alg7 restores both sides from the cache the cold run
			// filled; alg5 has no cache and simply runs again.
			wm, err := replayJoin(w, cw, ocbSealer, cache, seed)
			if err != nil {
				return nil, err
			}
			p, err := replayJoin(w, cw, sim.PlainSealer{}, mapCache{}, seed)
			if err != nil {
				return nil, err
			}
			if want := closedForm(w, cw); c.stats.Transfers() != want || p.stats.Transfers() != want {
				return nil, fmt.Errorf("replay: contract %d moved %d cells (%d under PlainSealer), closed form %d",
					cw.n, c.stats.Transfers(), p.stats.Transfers(), want)
			}
			load += c.load + wm.load
			loads += 4 // two tables per run
			cold += c.join
			warm += wm.join
			plain += p.join
			joins++
			transfers += c.stats.Transfers()
			comparisons += c.stats.Comparisons
			events += c.traceEvents
			allocs += c.allocs
		}
	}
	ms := func(d time.Duration, n int) metric {
		return metric{float64(d.Nanoseconds()) / float64(n) / 1e6, unitMs}
	}
	perJoin := func(v uint64) metric { return metric{float64(v) / float64(joins), unitCount} }
	m := map[string]metric{
		"sim.load_ms":                    ms(load, loads),
		"core.join_ms":                   ms(cold, joins),
		"core.join_warm_ms":              ms(warm, joins),
		"ocb.join_share":                 {1 - float64(plain)/float64(cold), unitFrac},
		"sim.trace_events_per_join":      perJoin(events),
		"sim.allocs_per_transfer":        {float64(allocs) / float64(transfers), unitCount},
		"core.transfers_per_join":        perJoin(transfers),
		"oblivious.comparisons_per_join": perJoin(comparisons),
	}
	ocbNs, gcmNs, err := cellCosts()
	if err != nil {
		return nil, err
	}
	m["ocb.seal_open_ns_per_cell"] = metric{ocbNs, "ns"}
	m["ocb.gcm_floor_ns_per_cell"] = metric{gcmNs, "ns"}
	verifyUs, err := verifyCost()
	if err != nil {
		return nil, err
	}
	m["secop.verify_us"] = metric{verifyUs, "us"}
	return m, nil
}

// closedForm is the exact transfer count of one cold join of cw.
func closedForm(w workload, cw *contractWork) uint64 {
	rows, s := int64(w.rows), int64(cw.want.Len())
	if w.alg == "alg5" {
		return uint64(core.Join5Transfers([]int64{rows, rows}, s, memory))
	}
	return uint64(core.Join7CachedTransfers(rows, rows, s, false, false))
}

// cellCosts times one seal plus one open of a 64-byte cell under the OCB
// sealer every coprocessor uses, and under the standard library's AES-GCM
// with the same key size as a floor.
func cellCosts() (ocbNs, gcmNs float64, err error) {
	const cells = 50000
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	cell := make([]byte, 64)
	s, err := sim.NewOCBSealer(key)
	if err != nil {
		return 0, 0, err
	}
	var ct, pt []byte
	start := time.Now()
	for i := 0; i < cells; i++ {
		ct = s.SealTo(ct[:0], cell)
		if pt, err = s.OpenTo(pt[:0], ct); err != nil {
			return 0, 0, err
		}
	}
	ocbNs = float64(time.Since(start).Nanoseconds()) / cells

	block, err := aes.NewCipher(key)
	if err != nil {
		return 0, 0, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return 0, 0, err
	}
	nonce := make([]byte, gcm.NonceSize())
	start = time.Now()
	for i := 0; i < cells; i++ {
		binary.BigEndian.PutUint64(nonce, uint64(i))
		ct = gcm.Seal(ct[:0], nonce, cell, nil)
		if pt, err = gcm.Open(pt[:0], nonce, ct, nil); err != nil {
			return 0, 0, err
		}
	}
	gcmNs = float64(time.Since(start).Nanoseconds()) / cells
	return ocbNs, gcmNs, nil
}

// verifyCost times secop.Verify of one Device.Attest attestation, the
// check every client handshake makes.
func verifyCost() (float64, error) {
	const rounds = 500
	dev, err := service.BootDevice()
	if err != nil {
		return 0, err
	}
	challenge := make([]byte, 32)
	att, err := dev.Attest(challenge)
	if err != nil {
		return 0, err
	}
	expected := service.ExpectedStack()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := secop.Verify(dev.DeviceKey(), expected, att, challenge); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / rounds / 1e3, nil
}
