package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"medshare/internal/core"
	"medshare/internal/reldb"
)

// valueString renders a cell the way the reference model spells it.
func valueString(v reldb.Value) string {
	if s, ok := v.Str(); ok {
		return s
	}
	if i, ok := v.Int(); ok {
		return strconv.FormatInt(i, 10)
	}
	return v.String()
}

// tableRows reads a program table into the model's form.
func tableRows(t *reldb.Table) rows {
	sch := t.Schema()
	names := sch.ColumnNames()
	keyIdx := make([]int, len(sch.Key))
	for i, k := range sch.Key {
		for j, n := range names {
			if n == k {
				keyIdx[i] = j
			}
		}
	}
	out := make(rows, t.Len())
	for _, r := range t.Rows() {
		row := make(map[string]string, len(names))
		for i, n := range names {
			row[n] = valueString(r[i])
		}
		parts := make([]string, len(keyIdx))
		for i, j := range keyIdx {
			parts[i] = row[names[j]]
		}
		out[strings.Join(parts, ",")] = row
	}
	return out
}

// rowValue returns a row's value in the named column.
func rowValue(names []string, r reldb.Row, col string) (string, error) {
	for i, n := range names {
		if n == col && i < len(r) {
			return valueString(r[i]), nil
		}
	}
	return "", fmt.Errorf("row %v has no column %s", r, col)
}

// payloadHex recomputes the table hash the on-chain payload hash
// commits to: sha256(schemaSum ‖ rowCount ‖ rowsRoot).
func payloadHex(schemaSum [32]byte, n int, root [32]byte) string {
	var buf [72]byte
	copy(buf[:32], schemaSum[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(n))
	copy(buf[40:], root[:])
	h := sha256.Sum256(buf[:])
	return hex.EncodeToString(h[:])
}

// provenRead is an in-process proof-verified point read: the serving
// peer's membership proof is checked against its root, and the root is
// bound to the share's on-chain payload hash whenever the chain is
// still at the proof's sequence number. It returns the proven row.
func provenRead(tr *tracer, p *core.Peer, f *finality, shareID string, key reldb.Row) (reldb.Row, error) {
	pr, err := p.ProveView(shareID, key)
	if err != nil {
		return nil, fmt.Errorf("prove %s %v: %w", shareID, key, err)
	}
	start := time.Now()
	ok := reldb.VerifyRowProof(pr.Root, pr.Row, pr.Proof)
	tr.done(spReldbVerify, start, 0)
	if !ok {
		return nil, fmt.Errorf("proof for %s %v does not verify", shareID, key)
	}
	m, err := f.meta(shareID)
	if err != nil {
		return nil, err
	}
	if m.Seq == pr.Seq {
		if got := payloadHex(pr.SchemaSum, pr.Rows, pr.Root); got != m.LastPayloadHash {
			return nil, fmt.Errorf("proof for %s %v binds to payload %s, chain has %s at seq %d",
				shareID, key, got[:12], m.LastPayloadHash, m.Seq)
		}
	}
	return pr.Row, nil
}

// checkReplica compares one replica with the model and with the share's
// on-chain payload hash.
func checkReplica(p *core.Peer, f *finality, shareID string, want rows) error {
	v, err := p.View(shareID)
	if err != nil {
		return err
	}
	if err := diffRows(p.Name()+" "+shareID, tableRows(v), want); err != nil {
		return err
	}
	m, err := f.meta(shareID)
	if err != nil {
		return err
	}
	if m.Seq == 0 || m.Pending != nil {
		return fmt.Errorf("%s: share at seq %d (pending %v) at the end of the run", shareID, m.Seq, m.Pending != nil)
	}
	h := v.Hash()
	if got := hex.EncodeToString(h[:]); got != m.LastPayloadHash {
		return fmt.Errorf("%s replica of %s hashes to %s, chain has %s", p.Name(), shareID, got[:12], m.LastPayloadHash)
	}
	return nil
}

// checkSource compares a stakeholder's local source table with the model.
func checkSource(p *core.Peer, table string, want rows) error {
	t, err := p.Source(table)
	if err != nil {
		return err
	}
	return diffRows(p.Name()+" "+table, tableRows(t), want)
}
