package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// serve: one hub serves serveShares shares of serveRows rows each to one
// partner, and its HTTP edge on loopback to serveClients closed-loop
// clients. Each client repeats serveMix: proof-carrying point reads (P),
// whole-view reads (V), light-client reads over the edge's /v1/light
// frames (L), and one write in ten (W) to the client's own shares,
// waited until final. Three light reads in four go to a hot set of
// lightHotKeys rows per share, which the light client's verified-row
// cache serves until a miss finds that a write has moved the share on;
// the rest go to any of the serveRows rows.
const (
	serveShares  = 8
	serveRows    = 1280
	serveClients = 2
	serveMix     = "PLVPLPWPLVPLPVLPLPWV"
	lightHotKeys = 2
	// serveCoalesce is the edge's write-coalescing window, at the node's
	// group-commit window.
	serveCoalesce  = groupCommitWindow
	viewSpotChecks = 4 // cells of a whole-view read checked against the model
)

type serve struct {
	r       *rig
	m       *cellModel
	hub     *core.Peer
	partner *core.Peer
	ids     []string
	srv     *api.Server
	hs      *http.Server
	url     string
	cl      []*serveClient
}

// serveClient is one closed-loop client: one HTTP connection shared by
// its API and light-client calls.
type serveClient struct {
	n      int
	rng    *rand.Rand
	hc     *http.Client
	api    *api.Client
	lc     *light.Client
	writes int
}

func (s *serve) setup(ctx context.Context, r *rig, seed int64) error {
	s.r = r
	s.m = newCellModel()
	genCells(s.m, serveRows, serveShares, seed)
	var err error
	if s.hub, err = r.addPeer("hub"); err != nil {
		return err
	}
	if s.partner, err = r.addPeer("partner"); err != nil {
		return err
	}
	s.hub.DB().PutTable(cellTable("T", s.m, serveRows, serveShares, -1))
	s.partner.DB().PutTable(cellTable("T", s.m, serveRows, serveShares, -1))
	s.ids = nil
	for i := 0; i < serveShares; i++ {
		col := valueCol(i)
		id := fmt.Sprintf("S%02d", i)
		err = s.hub.RegisterShare(ctx, core.RegisterShareArgs{
			ID: id, SourceTable: "T", Lens: r.lens(bx.Project(id+"h", []string{"k", col}, nil)), ViewName: id + "h",
			Peers:     []identity.Address{s.hub.Address(), s.partner.Address()},
			WritePerm: map[string][]identity.Address{col: {s.hub.Address()}},
		})
		if err != nil {
			return err
		}
		if err := s.partner.AttachShare(id, "T", r.lens(bx.Project(id+"p", []string{"k", col}, nil)), id+"p"); err != nil {
			return err
		}
		s.ids = append(s.ids, id)
	}
	if s.srv, err = api.New(api.Config{Peer: s.hub, Node: r.node, CoalesceWindow: serveCoalesce, Store: r.stores[0]}); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(lis) //nolint:errcheck // returns ErrServerClosed on stop
	s.url = "http://" + lis.Addr().String()

	verify := consensus.NewPoA(true, r.authors...).VerifyHeader
	s.cl = nil
	for c := 0; c < serveClients; c++ {
		hc := &http.Client{
			Timeout:   opTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		lc, err := light.New(light.Config{
			Network: networkName, Verify: verify,
			Source: &api.LightSource{BaseURL: s.url, HTTPClient: hc},
		})
		if err != nil {
			return err
		}
		for _, id := range s.ids {
			lc.Subscribe(id)
		}
		s.cl = append(s.cl, &serveClient{
			n: c, rng: rand.New(rand.NewSource(seed*31 + int64(c))), hc: hc,
			api: &api.Client{BaseURL: s.url, HTTPClient: hc}, lc: lc,
		})
	}
	// Warm-up: every share gets a finalized write (light reads need an
	// on-chain payload hash), then each client runs one whole round.
	for i := range s.ids {
		cl := s.cl[i*serveClients/serveShares]
		if err := s.write(ctx, newMeter(), cl, i); err != nil {
			return err
		}
	}
	for _, cl := range s.cl {
		if _, err := cl.lc.SyncHeaders(ctx); err != nil {
			return err
		}
		if err := s.round(ctx, newMeter(), cl); err != nil {
			return err
		}
	}
	return nil
}

func (s *serve) stop() {
	if s.hs != nil {
		s.hs.Close()
	}
	for _, cl := range s.cl {
		cl.hc.CloseIdleConnections()
	}
}

func (s *serve) run(ctx context.Context, m *meter, until time.Time, maxRounds int) {
	var wg sync.WaitGroup
	for _, cl := range s.cl {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			loop(until, maxRounds, func() error { return s.round(ctx, m, cl) })
		}(cl)
	}
	wg.Wait()
}

// round runs the client's operation mix once.
func (s *serve) round(ctx context.Context, m *meter, cl *serveClient) error {
	for _, op := range serveMix {
		var err error
		switch op {
		case 'P':
			err = s.pointRead(ctx, m, cl)
		case 'V':
			err = s.viewRead(ctx, m, cl)
		case 'L':
			err = s.lightRead(ctx, m, cl)
		case 'W':
			err = s.write(ctx, m, cl, cl.n*serveShares/serveClients+cl.writes%(serveShares/serveClients))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timed runs one operation of a client. Two clients run at once, so
// decorator spans cannot be attributed to an operation and go under the
// background root.
func (s *serve) timed(m *meter, kind, class string, updates int, fn func() error) error {
	return timed(s.r.tr, m, kind, class, updates, false, fn)
}

// pointRead is a proof-carrying read: the proof is verified against its
// root, the root is bound to the on-chain payload hash whenever the
// chain is still at the read's seq, and the value is one the model held.
func (s *serve) pointRead(ctx context.Context, m *meter, cl *serveClient) error {
	share, key := cl.rng.Intn(serveShares), cl.rng.Intn(serveRows)
	id := s.ids[share]
	return s.timed(m, "read.proof", classRead, 0, func() error {
		start := time.Now()
		res, err := cl.api.Row(ctx, id, []string{strconv.Itoa(key)}, true)
		s.r.tr.done(spAPIRow, start, 0)
		if err != nil {
			return err
		}
		if res.Proof == nil {
			return fmt.Errorf("row %s/%d carries no proof", id, key)
		}
		rb, err := hex.DecodeString(res.Root)
		if err != nil || len(rb) != 32 {
			return fmt.Errorf("row %s/%d: bad root %q", id, key, res.Root)
		}
		var root [32]byte
		copy(root[:], rb)
		vs := time.Now()
		ok := reldb.VerifyRowProof(root, res.Row, *res.Proof)
		s.r.tr.done(spReldbVerify, vs, 0)
		if !ok {
			return fmt.Errorf("row %s/%d: proof does not verify", id, key)
		}
		sb, err := hex.DecodeString(res.SchemaSum)
		if err != nil || len(sb) != 32 {
			return fmt.Errorf("row %s/%d: bad schema sum %q", id, key, res.SchemaSum)
		}
		var schemaSum [32]byte
		copy(schemaSum[:], sb)
		meta, err := s.r.watch.meta(id)
		if err != nil {
			return err
		}
		if payload := payloadHex(schemaSum, res.Rows, root); meta.Seq == res.Seq && payload != meta.LastPayloadHash {
			return fmt.Errorf("row %s/%d binds to payload %s, chain has %s at seq %d", id, key, payload[:12], meta.LastPayloadHash, meta.Seq)
		}
		return s.held(id, share, res.Row)
	})
}

// held checks a (k, value) row against the model's history of that cell.
func (s *serve) held(id string, share int, row reldb.Row) error {
	if len(row) != 2 {
		return fmt.Errorf("%s: row %v has %d columns", id, row, len(row))
	}
	k, ok := row[0].Int()
	if !ok {
		return fmt.Errorf("%s: row %v has no int key", id, row)
	}
	if v := valueString(row[1]); !s.m.held(k, share, v) {
		return fmt.Errorf("%s row %d: %q was never written", id, k, v)
	}
	return nil
}

// viewRead fetches a whole view and spot-checks it against the model.
func (s *serve) viewRead(ctx context.Context, m *meter, cl *serveClient) error {
	share := cl.rng.Intn(serveShares)
	id := s.ids[share]
	keys := make([]int64, viewSpotChecks)
	for i := range keys {
		keys[i] = int64(cl.rng.Intn(serveRows))
	}
	return s.timed(m, "read.view", classRead, 0, func() error {
		start := time.Now()
		data, err := s.get(ctx, cl, "/v1/shares/"+id+"/rows")
		s.r.tr.done(spAPIRows, start, len(data))
		if err != nil {
			return err
		}
		ds := time.Now()
		t, err := reldb.UnmarshalTable(data)
		s.r.tr.done(spReldbDecode, ds, len(data))
		if err != nil {
			return err
		}
		if t.Len() != serveRows {
			return fmt.Errorf("view %s has %d rows, want %d", id, t.Len(), serveRows)
		}
		for _, k := range keys {
			row, ok := t.Get(reldb.Row{reldb.I(k)})
			if !ok {
				return fmt.Errorf("view %s lacks row %d", id, k)
			}
			if err := s.held(id, share, row); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *serve) get(ctx context.Context, cl *serveClient, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// lightRead is a light-client read, verified against the client's own
// header chain.
func (s *serve) lightRead(ctx context.Context, m *meter, cl *serveClient) error {
	share, key := cl.rng.Intn(serveShares), int64(cl.rng.Intn(serveRows))
	if cl.rng.Intn(4) != 0 {
		key = int64(cl.rng.Intn(lightHotKeys))
	}
	id := s.ids[share]
	return s.timed(m, "read.light", classRead, 0, func() error {
		start := time.Now()
		row, err := cl.lc.Read(ctx, id, reldb.Row{reldb.I(key)})
		s.r.tr.done(spLightRead, start, 0)
		if err != nil {
			return err
		}
		return s.held(id, share, row)
	})
}

// write sets one cell of one of the client's own shares through the
// edge's coalescer and waits until the update is final.
func (s *serve) write(ctx context.Context, m *meter, cl *serveClient, share int) error {
	cl.writes++
	id := s.ids[share]
	key := int64(cl.rng.Intn(serveRows))
	v := fmt.Sprintf("w%d-%d-%d", cl.n, cl.writes, cl.rng.Intn(1_000_000))
	s.m.offer(key, share, v)
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	err := s.timed(m, "write", classUpdate, 1, func() error {
		start := time.Now()
		res, err := cl.api.Update(octx, id, []api.RowOp{{
			Op: "set", Key: []any{float64(key)}, Set: map[string]any{valueCol(share): v},
		}})
		s.r.tr.done(spAPIUpdate, start, 0)
		if err != nil {
			return err
		}
		if res.NoChange || res.Seq == 0 {
			return fmt.Errorf("write %s/%d proposed nothing", id, key)
		}
		fs := time.Now()
		err = s.r.watch.wait(octx, id, res.Seq)
		s.r.tr.done(spCoreFinalize, fs, 0)
		return err
	})
	if err == nil {
		s.m.set(key, share, v)
	}
	return err
}

// edgeSnap is the serving edge's own counters: /metrics and the light
// clients' Stats.
type edgeSnap struct {
	rowCount, rowSeconds float64 // row handler latency summary
	viewHits, viewMisses float64
	batches, writes      float64
	lightReads           float64
	light                lightCounters
}

type lightCounters struct {
	CacheHits, WireBytes, HeadRefreshes, StaleRetries float64
}

func (s *serve) edge() edgeSnap {
	var e edgeSnap
	for _, cl := range s.cl {
		st := cl.lc.Stats()
		e.lightReads += float64(st.CacheHits + st.CacheMisses)
		e.light.CacheHits += float64(st.CacheHits)
		e.light.WireBytes += float64(st.WireBytes)
		e.light.HeadRefreshes += float64(st.HeadRefreshes)
		e.light.StaleRetries += float64(st.StaleRetries)
	}
	if len(s.cl) == 0 {
		return e
	}
	text, err := s.cl[0].api.Metrics(context.Background())
	if err != nil {
		return e
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case `medshare_api_latency_seconds_count{kind="row"}`:
			e.rowCount = v
		case `medshare_api_latency_seconds_sum{kind="row"}`:
			e.rowSeconds = v
		case "medshare_api_view_cache_hits_total":
			e.viewHits = v
		case "medshare_api_view_cache_misses_total":
			e.viewMisses = v
		case "medshare_api_write_batches_total":
			e.batches = v
		case "medshare_api_coalesced_writes_total":
			e.writes = v
		}
	}
	return e
}

// check compares the hub's source, the partner's source and both
// replicas of every share with the model and the on-chain payload hash.
func (s *serve) check(ctx context.Context) error {
	full := s.m.full(serveRows, serveShares)
	if err := checkSource(s.hub, "T", full); err != nil {
		return err
	}
	if err := checkSource(s.partner, "T", full); err != nil {
		return err
	}
	for i, id := range s.ids {
		want := s.m.view(serveRows, i, valueCol(i))
		for _, p := range []*core.Peer{s.hub, s.partner} {
			if err := checkReplica(p, s.r.watch, id, want); err != nil {
				return err
			}
		}
	}
	return nil
}
