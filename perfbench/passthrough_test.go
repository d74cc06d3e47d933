package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"medshare/internal/reldb"
)

// contentDigest hashes a table's rows in key order. Unlike Table.Hash it
// does not depend on the share's random storage-priority secret, so two
// runs with equal contents digest equally.
func contentDigest(t *reldb.Table) string {
	h := sha256.New()
	for _, r := range t.Rows() {
		h.Write(r.AppendCanonical(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runRounds sets a workload up once, runs rounds whole rounds, checks it
// against the model and returns the content digest of every table of
// every peer.
func runRounds(t *testing.T, name string, seed int64, tr *tracer, rounds int) map[string]string {
	t.Helper()
	ctx := context.Background()
	spec := workloads[name]
	r, err := newRig(tr, spec.tcp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	w := spec.make()
	defer w.stop()
	if err := w.setup(ctx, r, seed); err != nil {
		t.Fatal(err)
	}
	m := newMeter()
	w.run(ctx, m, time.Time{}, rounds)
	if _, _, failed := m.class(classUpdate); failed > 0 {
		t.Fatalf("%s: %d updates failed: %v", name, failed, m.errs)
	}
	if err := w.check(ctx); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, p := range r.peers {
		for _, tn := range p.DB().TableNames() {
			tbl, err := p.DB().Table(tn)
			if err != nil {
				t.Fatal(err)
			}
			out[p.Name()+"/"+tn] = contentDigest(tbl)
		}
	}
	return out
}

// TestDecoratorsPassThrough runs every workload twice from one seed,
// once plain and once with every timing decorator installed, and
// requires identical table contents at the end.
func TestDecoratorsPassThrough(t *testing.T) {
	for _, name := range []string{"cascade", "ingest", "serve"} {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			plain := runRounds(t, name, 42, nil, 1)
			traced := runRounds(t, name, 42, tr, 1)
			if len(plain) == 0 || len(plain) != len(traced) {
				t.Fatalf("plain run has %d tables, traced run %d", len(plain), len(traced))
			}
			for k, v := range plain {
				if traced[k] != v {
					t.Errorf("%s differs between the plain and the traced run", k)
				}
			}
			for _, name := range []string{spBxGet, spContractInvoke, spConsensusSeal, spP2PRequest, spStoreAppend} {
				if tr.calls(name) == 0 {
					t.Errorf("traced run recorded no %s call: decorator not installed", name)
				}
			}
		})
	}
}
