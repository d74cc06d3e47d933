package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// Settings shared by every workload: one PoA node producing blocks on
// demand (group commit), peers with durable replica stores on in-memory
// filesystems, no injected message delay.
const (
	networkName       = "perfbench"
	blockInterval     = 10 * time.Millisecond // idle fallback only
	groupCommitWindow = 500 * time.Microsecond
	opTimeout         = 20 * time.Second
	// raceBlockInterval paces the idle fallback of multi-node rigs: the
	// 5 ms blocks under which the multi-node commit race was reported.
	raceBlockInterval = 5 * time.Millisecond
)

// rig is one in-process deployment, wired from the modules' own
// constructors. With a tracer every interface between modules that the
// wiring hands over is wrapped in a timing decorator; without one the
// wiring is exactly what the program would build.
type rig struct {
	tr      *tracer
	tcp     bool
	authors []identity.Address
	nodes   []*node.Node
	node    *node.Node // the first node: finality and metadata are read here
	mem     *p2p.MemNetwork
	dir     *core.Directory
	tcps    []*p2p.TCPTransport
	stores  []*store.Store
	peers   []*core.Peer
	watch   *finality
	cancel  context.CancelFunc
}

// newRig starts nodes PoA authorities. Every workload of the benchmark
// runs on one; more gossip blocks over the in-memory network and exist
// to reproduce the multi-node commit race (see README.md).
func newRig(tr *tracer, tcp bool, nodes int) (*rig, error) {
	r := &rig{tr: tr, tcp: tcp, mem: p2p.NewMemNetwork(), dir: core.NewDirectory()}
	ids := make([]*identity.Identity, nodes)
	for i := range ids {
		id, err := identity.New(fmt.Sprintf("node-%d", i))
		if err != nil {
			return nil, err
		}
		ids[i] = id
		r.authors = append(r.authors, id.Address())
	}
	interval := blockInterval
	if nodes > 1 {
		interval = raceBlockInterval
	}
	for _, id := range ids {
		var engine consensus.Engine = consensus.NewPoA(true, r.authors...)
		var reg contract.Contract = sharereg.New()
		var tp p2p.Transport
		if nodes > 1 {
			tp = r.mem.Endpoint(id.Name)
		}
		if tr != nil {
			engine = tracedEngine{engine, tr}
			reg = tracedContract{reg, tr}
			if tp != nil {
				tp = tracedTransport{tp, tr}
			}
		}
		n, err := node.New(node.Config{
			NetworkName:       networkName,
			Identity:          id,
			Engine:            engine,
			Registry:          contract.NewRegistry(reg),
			BlockInterval:     interval,
			GroupCommitWindow: groupCommitWindow,
			Transport:         tp,
		})
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for _, n := range r.nodes {
		n.Start(ctx)
	}
	r.node = r.nodes[0]
	r.watch = newFinality(r.node)
	return r, nil
}

// addPeer creates a stakeholder with its own database, data-channel
// endpoint and durable store, attached to the first node, and starts it.
func (r *rig) addPeer(name string) (*core.Peer, error) { return r.addPeerOn(name, 0) }

// addPeerOn is addPeer on the node'th node.
func (r *rig) addPeerOn(name string, nodeIdx int) (*core.Peer, error) {
	id, err := identity.New(name)
	if err != nil {
		return nil, err
	}
	endpoint := "peer-" + name
	var tp p2p.Transport
	if r.tcp {
		tt, err := p2p.NewTCPTransport(endpoint, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		for _, o := range r.tcps {
			tt.AddPeer(o.Name(), o.Addr())
			o.AddPeer(endpoint, tt.Addr())
		}
		r.tcps = append(r.tcps, tt)
		tp = tt
	} else {
		tp = r.mem.Endpoint(endpoint)
	}
	var fs store.FS = store.NewMemFS()
	if r.tr != nil {
		tp = tracedTransport{tp, r.tr}
		fs = tracedFS{fs, r.tr}
	}
	st, err := store.Open(store.Options{FS: fs})
	if err != nil {
		return nil, err
	}
	r.stores = append(r.stores, st)
	p, err := core.NewPeer(core.Config{
		Identity:  id,
		DB:        reldb.NewDatabase(name),
		Node:      r.nodes[nodeIdx],
		Transport: tp,
		Directory: r.dir,
		Store:     st,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	r.peers = append(r.peers, p)
	return p, nil
}

// editAndWait is the body of one update operation: a local edit of a
// source table, the proposal on every share derived from it, and the
// wait until all want of them are final.
func (r *rig) editAndWait(ctx context.Context, p *core.Peer, table string, mutate func(*reldb.Table) error, want int) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if err := p.UpdateSource(table, mutate); err != nil {
		return err
	}
	ps := time.Now()
	props, err := p.SyncShares(ctx, table)
	r.tr.done(spCorePropose, ps, 0)
	if err != nil {
		return err
	}
	if len(props) != want {
		return fmt.Errorf("edit of %s proposed %d share updates, want %d", table, len(props), want)
	}
	fs := time.Now()
	err = r.watch.waitAll(ctx, props)
	r.tr.done(spCoreFinalize, fs, 0)
	return err
}

// lens wraps a lens in the timing decorator on traced runs.
func (r *rig) lens(l bx.Lens) bx.Lens {
	if r.tr == nil {
		return l
	}
	return tracedLens{l, r.tr}
}

// storeBytes is the total size of every peer's durable log.
func (r *rig) storeBytes() int64 {
	var n int64
	for _, st := range r.stores {
		n += st.Stats().TotalBytes
	}
	return n
}

// peerStats sums Peer.Stats over every peer.
func (r *rig) peerStats() core.Stats {
	var s core.Stats
	for _, p := range r.peers {
		ps := p.Stats()
		s.RPCRetries += ps.RPCRetries
		s.ResyncsTriggered += ps.ResyncsTriggered
		s.ProposalRetries += ps.ProposalRetries
		s.SyncRounds += ps.SyncRounds
		s.BatchCommits += ps.BatchCommits
		s.BatchTxs += ps.BatchTxs
		s.FetchesServed += ps.FetchesServed
		s.ProofCacheHits += ps.ProofCacheHits
		s.ProofCacheMisses += ps.ProofCacheMisses
	}
	return s
}

// chainTxs counts the transactions in blocks (from, to].
func (r *rig) chainTxs(from, to uint64) int {
	n := 0
	st := r.node.Store()
	for h := from + 1; h <= to; h++ {
		if b, ok := st.AtHeight(h); ok {
			n += len(b.Txs)
		}
	}
	return n
}

func (r *rig) stop() {
	for _, p := range r.peers {
		p.Stop()
	}
	for _, tt := range r.tcps {
		tt.Close()
	}
	r.watch.stop()
	r.cancel()
	for _, n := range r.nodes {
		n.Stop()
	}
	for _, st := range r.stores {
		_ = st.Close() // in-memory logs; nothing to flush
	}
}

// finality follows the node's share.update.final events, so an update
// counts as final the moment the block that finalizes it commits — not
// at the next tick of a poll. If the subscription drops events (the
// node drops them for a full buffer), a wait falls back to the share's
// on-chain metadata.
type finality struct {
	node   *node.Node
	cancel func()
	done   chan struct{}
	events atomic.Int64 // every event delivered to the subscription
	missed atomic.Int64 // waits settled from on-chain metadata instead

	mu      sync.Mutex
	final   map[string]uint64
	waiters map[string][]finalWaiter
}

type finalWaiter struct {
	seq uint64
	ch  chan struct{}
}

// eventBuffer covers a full ingest round (64 requests, 128 acks, 64
// finals) with room to spare.
const eventBuffer = 1 << 14

func newFinality(n *node.Node) *finality {
	ch, cancel := n.Subscribe(eventBuffer)
	f := &finality{
		node: n, cancel: cancel, done: make(chan struct{}),
		final: make(map[string]uint64), waiters: make(map[string][]finalWaiter),
	}
	go func() {
		defer close(f.done)
		for ev := range ch {
			f.events.Add(1)
			if ev.Contract != sharereg.ContractName || ev.Name != sharereg.EvUpdateFinal {
				continue
			}
			p, err := sharereg.DecodeEvent(ev.Payload)
			if err != nil {
				continue
			}
			f.mark(p.ShareID, p.Seq)
		}
	}()
	return f
}

func (f *finality) mark(id string, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq <= f.final[id] {
		return
	}
	f.final[id] = seq
	keep := f.waiters[id][:0]
	for _, w := range f.waiters[id] {
		if w.seq <= seq {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	f.waiters[id] = keep
}

// metaFallback is how long a wait trusts the event stream before it
// reads the on-chain metadata.
const metaFallback = 250 * time.Millisecond

// wait blocks until the share's on-chain sequence reaches seq.
func (f *finality) wait(ctx context.Context, id string, seq uint64) error {
	for {
		f.mu.Lock()
		if f.final[id] >= seq {
			f.mu.Unlock()
			return nil
		}
		w := finalWaiter{seq: seq, ch: make(chan struct{})}
		f.waiters[id] = append(f.waiters[id], w)
		f.mu.Unlock()
		t := time.NewTimer(metaFallback)
		select {
		case <-w.ch:
			t.Stop()
			return nil
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("waiting for %s seq %d: %w", id, seq, ctx.Err())
		case <-t.C:
			m, err := f.meta(id)
			if err != nil {
				return err
			}
			if m.Seq >= seq {
				f.missed.Add(1)
				f.mark(id, m.Seq)
				return nil
			}
		}
	}
}

func (f *finality) meta(id string) (*sharereg.Meta, error) {
	raw, err := f.node.Query(sharereg.ContractName, sharereg.FnGet, []byte(id))
	if err != nil {
		return nil, err
	}
	return sharereg.DecodeMeta(raw)
}

func (f *finality) stop() {
	f.cancel()
	<-f.done
}

// waitAll waits for every proposal to be final.
func (f *finality) waitAll(ctx context.Context, props []core.ProposalResult) error {
	for _, p := range props {
		if err := f.wait(ctx, p.ShareID, p.Seq); err != nil {
			return err
		}
	}
	return nil
}

// headerHeight is the node's chain height.
func (r *rig) height() uint64 { return r.node.Store().Height() }
