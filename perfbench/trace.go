package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// The tracer times the program from outside: decorators around the
// interfaces the modules hand each other (bx.Lens, consensus.Engine,
// contract.Contract, p2p.Transport, store.FS) plus the benchmark's own
// calls into reldb, core, api and light. Each call becomes a span kept
// in memory and written out when the run ends; per-name counters (calls,
// busy time, bytes) give the per-layer metrics. A plain run has no
// tracer: a nil *tracer installs no decorator and every method is a
// no-op.

// Span names. Every counter the per-layer metrics read is one of these.
const (
	spBxGet           = "bx.get"
	spBxPut           = "bx.put"
	spBxPutDelta      = "bx.put_delta"
	spReldbVerify     = "reldb.verify_row_proof"
	spReldbDecode     = "reldb.unmarshal_table"
	spCorePropose     = "core.propose"
	spCoreFinalize    = "core.finalize"
	spConsensusSeal   = "consensus.seal"
	spConsensusVerify = "consensus.verify_header"
	spContractInvoke  = "contract.invoke"
	spContractQuery   = "contract.query"
	spP2PSend         = "p2p.send"
	spP2PBroadcast    = "p2p.broadcast"
	spP2PRequest      = "p2p.request"
	spStoreAppend     = "store.append"
	spStoreSync       = "store.sync"
	spAPIRow          = "api.row"
	spAPIRows         = "api.rows"
	spAPIUpdate       = "api.update"
	spLightRead       = "light.read"
	// spOp prefixes operation root spans ("op.<kind>"); they carry no
	// counters.
	spOp = "op"
)

var spanNames = []string{
	spBxGet, spBxPut, spBxPutDelta, spReldbVerify, spReldbDecode,
	spCorePropose, spCoreFinalize, spConsensusSeal, spConsensusVerify,
	spContractInvoke, spContractQuery, spP2PSend, spP2PBroadcast, spP2PRequest,
	spStoreAppend, spStoreSync, spAPIRow, spAPIRows, spAPIUpdate,
	spLightRead,
}

// maxSpans caps the in-memory span log (~64 B each); later spans are
// counted but not kept.
const maxSpans = 1 << 21

// span is one timed call. Op is the operation in flight when it ran and
// Parent that operation's root span; both are 0 (the background root)
// when no operation could be named. A root span ("op.<kind>") has its
// own ID as Op and Parent 0. Times are ns since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanStat struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

type tracer struct {
	t0 time.Time
	// cur is the operation in flight in a single-client closed loop (the
	// id of its root span); 0 is the background root, which takes every
	// span that cannot be attributed.
	cur    atomic.Int64
	nextID atomic.Int64
	stats  map[string]*spanStat // fixed key set: read-only after newTracer

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), stats: make(map[string]*spanStat, len(spanNames))}
	for _, n := range spanNames {
		t.stats[n] = &spanStat{}
	}
	return t
}

// done records one call that started at start. bytes is the payload the
// call moved, where that means something.
func (t *tracer) done(name string, start time.Time, bytes int) {
	if t == nil {
		return
	}
	op := t.cur.Load()
	t.finish(name, start, t.nextID.Add(1), op, op, bytes)
}

// finish records a span and, for a named layer call, its counters.
func (t *tracer) finish(name string, start time.Time, id, parent, op int64, bytes int) {
	end := time.Now()
	d := end.Sub(start)
	if st, ok := t.stats[name]; ok {
		st.calls.Add(1)
		st.ns.Add(int64(d))
		st.bytes.Add(int64(bytes))
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Op: op, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// beginOp opens an operation's root span and, when attribute is set
// (single-client loops), makes it the operation in flight so decorator
// spans nest under it. The returned function closes it.
func (t *tracer) beginOp(kind string, attribute bool) func() {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	if attribute {
		t.cur.Store(id)
	}
	start := time.Now()
	return func() {
		if attribute {
			t.cur.Store(0)
		}
		t.finish(spOp+"."+kind, start, id, 0, id, 0)
	}
}

// reset zeroes the counters and drops the spans recorded so far, so a
// run's numbers cover only its measured window.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	for _, st := range t.stats {
		st.calls.Store(0)
		st.ns.Store(0)
		st.bytes.Store(0)
	}
	t.mu.Lock()
	t.spans = nil
	t.dropped = 0
	t.mu.Unlock()
}

// calls, ms and bytes read one span name's counters.
func (t *tracer) calls(name string) float64 { return float64(t.stats[name].calls.Load()) }
func (t *tracer) ms(name string) float64    { return float64(t.stats[name].ns.Load()) / 1e6 }
func (t *tracer) bytes(name string) float64 { return float64(t.stats[name].bytes.Load()) }

// write dumps the span log as JSON lines, in the order the spans ended.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- decorators ----

type tracedLens struct {
	bx.Lens
	t *tracer
}

func (l tracedLens) Get(src *reldb.Table) (*reldb.Table, error) {
	start := time.Now()
	v, err := l.Lens.Get(src)
	l.t.done(spBxGet, start, 0)
	return v, err
}

func (l tracedLens) Put(src, view *reldb.Table) (*reldb.Table, error) {
	start := time.Now()
	s, err := l.Lens.Put(src, view)
	l.t.done(spBxPut, start, 0)
	return s, err
}

func (l tracedLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	start := time.Now()
	s, out, err := l.Lens.PutDelta(src, view, cs)
	l.t.done(spBxPutDelta, start, 0)
	return s, out, err
}

type tracedEngine struct {
	consensus.Engine
	t *tracer
}

func (e tracedEngine) Seal(ctx context.Context, b *chain.Block, id *identity.Identity) error {
	start := time.Now()
	err := e.Engine.Seal(ctx, b, id)
	e.t.done(spConsensusSeal, start, 0)
	return err
}

func (e tracedEngine) VerifyHeader(h *chain.Header) error {
	start := time.Now()
	err := e.Engine.VerifyHeader(h)
	e.t.done(spConsensusVerify, start, 0)
	return err
}

type tracedContract struct {
	contract.Contract
	t *tracer
}

func (c tracedContract) Invoke(stub contract.Stub, fn string, args [][]byte) ([]byte, error) {
	start := time.Now()
	out, err := c.Contract.Invoke(stub, fn, args)
	name := spContractInvoke
	if fn == sharereg.FnGet || fn == sharereg.FnList {
		name = spContractQuery // read-only lookups, not transactions
	}
	c.t.done(name, start, 0)
	return out, err
}

type tracedTransport struct {
	p2p.Transport
	t *tracer
}

func (tp tracedTransport) Send(to string, msg p2p.Message) error {
	start := time.Now()
	err := tp.Transport.Send(to, msg)
	tp.t.done(spP2PSend, start, len(msg.Payload))
	return err
}

func (tp tracedTransport) Broadcast(msg p2p.Message) error {
	start := time.Now()
	err := tp.Transport.Broadcast(msg)
	tp.t.done(spP2PBroadcast, start, len(msg.Payload))
	return err
}

func (tp tracedTransport) Request(ctx context.Context, to string, msg p2p.Message) (p2p.Message, error) {
	start := time.Now()
	resp, err := tp.Transport.Request(ctx, to, msg)
	tp.t.done(spP2PRequest, start, len(msg.Payload)+len(resp.Payload))
	return resp, err
}

type tracedFS struct {
	store.FS
	t *tracer
}

func (fs tracedFS) OpenAppend(name string) (store.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{f, fs.t}, nil
}

type tracedFile struct {
	store.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.done(spStoreAppend, start, n)
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.done(spStoreSync, start, 0)
	return err
}
