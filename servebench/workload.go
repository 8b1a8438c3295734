package main

import (
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"time"

	"ppj/internal/relation"
	"ppj/internal/service"
)

// workload is one traffic mix: which algorithm every contract names, how
// large each provider's relation is, and how often a contract is executed.
type workload struct {
	name     string
	alg      string        // contracted algorithm, "alg5" or "alg7"
	rows     int           // rows per provider relation
	keySpace int64         // join keys are uniform in [0, keySpace)
	tenants  int           // contract i runs under tenant i mod tenants
	rounds   int           // executions per contract: Register, then rounds-1 Resubmits
	durable  bool          // store on local disk (DataDir), restart at the window midpoint
	warmup   int           // contracts each client runs during set-up, outside the timed window
	restarts int           // fewest restarts; recovery_s is the median of all of them
	recovery time.Duration // least time the restarts take; in memory half run before the window, half after
	replay   int           // contracts whose inputs the layer replay re-runs
}

// workloads are the benchmark's three traffic mixes; README.md records why
// each was chosen.
var workloads = map[string]workload{
	"small-contracts": {name: "small-contracts", alg: "alg5", rows: 8, keySpace: 5, tenants: 8, rounds: 1, warmup: 100, restarts: 40, recovery: 4 * time.Second, replay: 64},
	"large-equijoin":  {name: "large-equijoin", alg: "alg7", rows: 1024, keySpace: 1024, tenants: 8, rounds: 1, warmup: 1, restarts: 6, replay: 1},
	"durable-rerun":   {name: "durable-rerun", alg: "alg7", rows: 64, keySpace: 64, tenants: 8, rounds: 4, durable: true, warmup: 4, restarts: 9, replay: 8},
}

// Party names of every generated contract.
const (
	partyA     = "provA"
	partyB     = "provB"
	partyRecip = "recip"
)

// generator derives every input of a run from the workload seed: contract
// n's identities, signed contract and both relations are a pure function of
// (workload, seed, n), so the same seed always yields byte-identical inputs
// whichever client happens to run contract n.
type generator struct {
	w    workload
	seed uint64
}

// rng returns an independent stream for (contract, purpose).
func (g generator) rng(n int, purpose uint64) *rand.Rand {
	s := splitmix(g.seed ^ splitmix(uint64(n)<<8|purpose))
	return rand.New(rand.NewPCG(s, splitmix(s)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// contractWork is one generated contract with its inputs and the reference
// join every delivery of it is checked against.
type contractWork struct {
	n          int
	contract   *service.Contract
	keys       [3]ed25519.PrivateKey // provA, provB, recip
	a, b       *relation.Relation
	want       *relation.Relation // relation.ReferenceJoin(a, b, key = key)
	inputBytes int64              // plaintext row bytes of a and b
}

// contract builds contract n: three parties with seed-derived ed25519
// identities, an equijoin on "key" under the workload's algorithm, signed by
// both providers (ed25519 signatures are deterministic).
func (g generator) contract(n int) (*service.Contract, [3]ed25519.PrivateKey) {
	var keys [3]ed25519.PrivateKey
	r := g.rng(n, 0)
	for k := range keys {
		var s [ed25519.SeedSize]byte
		for i := range s {
			s[i] = byte(r.Uint32())
		}
		keys[k] = ed25519.NewKeyFromSeed(s[:])
	}
	pub := func(k int) ed25519.PublicKey { return keys[k].Public().(ed25519.PublicKey) }
	c := &service.Contract{
		ID:     fmt.Sprintf("%s-%016x-%d", g.w.name, g.seed, n),
		Tenant: fmt.Sprintf("tenant-%d", n%g.w.tenants),
		Parties: []service.Party{
			{Name: partyA, Identity: pub(0), Role: service.RoleProvider},
			{Name: partyB, Identity: pub(1), Role: service.RoleProvider},
			{Name: partyRecip, Identity: pub(2), Role: service.RoleRecipient},
		},
		Predicate: service.PredicateSpec{Kind: "equi", AttrA: "key", AttrB: "key"},
		Algorithm: g.w.alg,
		Epsilon:   1e-9,
	}
	c.Sign(0, keys[0])
	c.Sign(1, keys[1])
	return c, keys
}

// relations builds contract n's two provider relations.
func (g generator) relations(n int) (a, b *relation.Relation) {
	a = relation.GenKeyed(g.rng(n, 1), g.w.rows, g.w.keySpace)
	b = relation.GenKeyed(g.rng(n, 2), g.w.rows, g.w.keySpace)
	return a, b
}

// work generates contract n with its reference join.
func (g generator) work(n int) (*contractWork, error) {
	c, keys := g.contract(n)
	a, b := g.relations(n)
	pred, err := relation.NewEqui(a.Schema, "key", b.Schema, "key")
	if err != nil {
		return nil, err
	}
	cw := &contractWork{n: n, contract: c, keys: keys, a: a, b: b, want: relation.ReferenceJoin(a, b, pred)}
	for _, rel := range []*relation.Relation{a, b} {
		rows, err := rel.EncodeAll()
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			cw.inputBytes += int64(len(row))
		}
	}
	return cw, nil
}
