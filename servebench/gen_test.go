package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ppj/internal/relation"
)

// encodeWork serialises everything the program receives for contract n:
// the signed contract and both relations' row encodings.
func encodeWork(t *testing.T, g generator, n int) []byte {
	t.Helper()
	cw, err := g.work(n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	raw, err := json.Marshal(cw.contract)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(raw)
	for _, rel := range []*relation.Relation{cw.a, cw.b} {
		rows, err := rel.EncodeAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			buf.Write(row)
		}
	}
	return buf.Bytes()
}

func TestGeneratorSameSeedSameInputs(t *testing.T) {
	for name, w := range workloads {
		for n := 0; n < 3; n++ {
			a := encodeWork(t, generator{w: w, seed: 42}, n)
			b := encodeWork(t, generator{w: w, seed: 42}, n)
			if !bytes.Equal(a, b) {
				t.Errorf("%s contract %d: two generators with seed 42 disagree", name, n)
			}
		}
	}
}

func TestGeneratorDifferentSeedDifferentInputs(t *testing.T) {
	for name, w := range workloads {
		for n := 0; n < 3; n++ {
			a := encodeWork(t, generator{w: w, seed: 42}, n)
			b := encodeWork(t, generator{w: w, seed: 43}, n)
			if bytes.Equal(a, b) {
				t.Errorf("%s contract %d: seeds 42 and 43 give identical inputs", name, n)
			}
		}
		// Contracts of one run differ from each other too.
		g := generator{w: w, seed: 42}
		if bytes.Equal(encodeWork(t, g, 0), encodeWork(t, g, 1)) {
			t.Errorf("%s: contracts 0 and 1 are identical", name)
		}
	}
}

func TestGeneratorContractsVerify(t *testing.T) {
	for name, w := range workloads {
		cw, err := generator{w: w, seed: 7}.work(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.contract.Verify(); err != nil {
			t.Errorf("%s: generated contract does not verify: %v", name, err)
		}
		if cw.a.Len() != w.rows || cw.b.Len() != w.rows {
			t.Errorf("%s: relations have %d and %d rows, want %d", name, cw.a.Len(), cw.b.Len(), w.rows)
		}
		if cw.inputBytes <= 0 {
			t.Errorf("%s: input bytes %d", name, cw.inputBytes)
		}
	}
}
