package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"medshare/internal/core"
	"medshare/internal/loadgen"
)

// Operation classes: an update is timed from the local edit call until
// every share update it caused is final on chain; a read is one
// verified read.
const (
	classUpdate = "update"
	classRead   = "read"
)

type kindStat struct {
	class     string
	attempted int
	failed    int
	samples   []sample
	hist      *loadgen.Histogram
}

// sample is one completed operation.
type sample struct {
	end     time.Time
	d       time.Duration
	updates int // share updates it finalized
}

// meter collects the closed loop's operations. Every operation is timed
// exactly; the loadgen histogram gives the reference percentiles (p99,
// per kind) printed beside the result.
type meter struct {
	mu      sync.Mutex
	kinds   map[string]*kindStat
	order   []string
	updates int // finalized share updates
	errs    []string
}

func newMeter() *meter { return &meter{kinds: make(map[string]*kindStat)} }

// record adds one finished operation. shareUpdates is the number of
// share updates it finalized.
func (m *meter) record(kind, class string, d time.Duration, err error, shareUpdates int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.kinds[kind]
	if k == nil {
		k = &kindStat{class: class, hist: &loadgen.Histogram{}}
		m.kinds[kind] = k
		m.order = append(m.order, kind)
	}
	k.attempted++
	if err != nil {
		k.failed++
		if len(m.errs) < 5 {
			m.errs = append(m.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	k.samples = append(k.samples, sample{time.Now(), d, shareUpdates})
	k.hist.Record(d)
	m.updates += shareUpdates
}

// loop calls round until the deadline has passed (or, with maxRounds >
// 0, that many times), so every run attempts whole rounds. A failed
// round ends the loop: it is recorded, and the end-of-run check reports
// what it left behind.
func loop(until time.Time, maxRounds int, round func() error) {
	for n := 0; maxRounds > 0 && n < maxRounds || maxRounds == 0 && time.Now().Before(until); n++ {
		if round() != nil {
			return
		}
	}
}

// timed runs one operation as a root span, times it and records it.
// attribute makes it the operation in flight, so decorator spans nest
// under it (single-client loops only).
func timed(tr *tracer, m *meter, kind, class string, updates int, attribute bool, fn func() error) error {
	end := tr.beginOp(kind, attribute)
	start := time.Now()
	err := fn()
	end()
	m.record(kind, class, time.Since(start), err, updates)
	return err
}

// class gathers the samples and counts of one class.
func (m *meter) class(c string) (samples []sample, attempted, failed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		k := m.kinds[name]
		if k.class != c {
			continue
		}
		samples = append(samples, k.samples...)
		attempted += k.attempted
		failed += k.failed
	}
	return samples, attempted, failed
}

// completed counts the operations of every kind that did not fail.
func (m *meter) completed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, k := range m.kinds {
		n += k.attempted - k.failed
	}
	return n
}

// report prints, per kind of operation, what was attempted and failed
// plus the reference percentiles.
func (m *meter) report(w *bufio.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		k := m.kinds[name]
		h := k.hist
		fmt.Fprintf(w, "op %-16s class=%-6s attempted=%d failed=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
			name, k.class, k.attempted, k.failed,
			ms(h.Quantile(0.50)), ms(h.Quantile(0.90)), ms(h.Quantile(0.99)), ms(h.Max()))
	}
	for _, e := range m.errs {
		fmt.Fprintf(w, "error %s\n", e)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the linearly interpolated sample quantile (type 7), over
// exact per-operation times: unlike histogram buckets, it moves with
// every sample.
func quantile(samples []sample, q float64) float64 {
	s := make([]float64, len(samples))
	for i, x := range samples {
		s[i] = ms(x.d)
	}
	sort.Float64s(s)
	return interpolate(s, 1+q*float64(len(s)-1))
}

// interpolate returns the value at 1-based rank h of the sorted values,
// interpolated linearly between the two nearest ranks (extrapolated from
// the outermost two when h lies outside [1, n]), as Python's
// statistics.quantiles does. Rank 1+q(n-1) gives the type-7 quantile q,
// rank p(n+1) Python's default ("exclusive") quantile p.
func interpolate(s []float64, h float64) float64 {
	n := len(s)
	if n < 2 {
		if n == 0 {
			return 0
		}
		return s[0]
	}
	j := min(max(int(math.Floor(h)), 1), n-1)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// snapshot is every counter read at the edges of the measured window.
type snapshot struct {
	at        time.Time
	cpu       time.Duration
	storeB    int64
	peer      core.Stats
	height    uint64
	events    int64
	missed    int64
	alloc     uint64
	gcs       uint32
	heap      uint64 // live heap after a forced GC
	edge      edgeSnap
	stealTick int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host's cumulative steal time (clock ticks) from
// /proc/stat; -1 where it is not available. Diagnostic only.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// take reads the counters at one edge of the measured window. The
// forced GC that measures the live heap runs outside the window: before
// the clock starts, and after it stops.
func take(r *rig, w scenario, start bool) snapshot {
	var s snapshot
	var mem runtime.MemStats
	if start {
		runtime.GC()
		runtime.ReadMemStats(&mem)
		s.heap = mem.HeapAlloc
	} else {
		s.at, s.cpu = time.Now(), cpuTime()
		runtime.ReadMemStats(&mem)
	}
	s.alloc, s.gcs = mem.TotalAlloc, mem.NumGC
	s.storeB, s.peer, s.height = r.storeBytes(), r.peerStats(), r.height()
	s.events, s.missed = r.watch.events.Load(), r.watch.missed.Load()
	s.edge, s.stealTick = w.edge(), stealTicks()
	if start {
		s.cpu, s.at = cpuTime(), time.Now()
	} else {
		runtime.GC()
		runtime.ReadMemStats(&mem)
		s.heap = mem.HeapAlloc
	}
	return s
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// slices is how many equal time slices the measured window is cut
// into. Percentiles are computed per slice and the median slice is
// reported, so a few seconds of host contention do not move them; rates
// are over the whole window.
const slices = 10

// sliceMedian cuts the window [a, b] into slices, evaluates f on the
// samples that ended in each, and returns the median over the slices
// that had any.
func sliceMedian(samples []sample, a, b time.Time, f func(s []sample, secs float64) float64) float64 {
	w := b.Sub(a) / slices
	per := make([][]sample, slices)
	for _, s := range samples {
		i := int(s.end.Sub(a) / w)
		if i >= slices {
			i = slices - 1
		}
		if i >= 0 {
			per[i] = append(per[i], s)
		}
	}
	var vals []float64
	for _, p := range per {
		if len(p) > 0 {
			vals = append(vals, f(p, w.Seconds()))
		}
	}
	return median(vals)
}

func pct(q float64) func([]sample, float64) float64 {
	return func(s []sample, _ float64) float64 { return quantile(s, q) }
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(setup []float64, m *meter, a, b snapshot) map[string]metric {
	ups, _, _ := m.class(classUpdate)
	reads, _, _ := m.class(classRead)
	updates := float64(m.updates)
	med := func(s []sample, f func([]sample, float64) float64) float64 { return sliceMedian(s, a.at, b.at, f) }
	secs := b.at.Sub(a.at).Seconds()
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"updates_per_s": {updates / secs, "1/s"},
		"update_p50_ms": {med(ups, pct(0.50)), "ms"},
		"update_p90_ms": {med(ups, pct(0.90)), "ms"},
		"reads_per_s":   {float64(len(reads)) / secs, "1/s"},
		"read_p50_ms":   {med(reads, pct(0.50)), "ms"},
		"read_p90_ms":   {med(reads, pct(0.90)), "ms"},
		"cpu_ms_per_op": {ms(b.cpu-a.cpu) / float64(m.completed()), "ms"},
		"store_kb_per_update": {
			float64(b.storeB-a.storeB) / 1024 / updates, "KB"},
		"retained_kb_per_update": {
			(float64(b.heap) - float64(a.heap) - float64(b.storeB-a.storeB)) / 1024 / updates, "KB"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return interpolate(s, float64(len(s)+1)/2)
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(tr *tracer, r *rig, m *meter, a, b snapshot) map[string]metric {
	u := float64(m.updates)
	ops := float64(m.completed())
	blocks := float64(b.height - a.height)
	txs := float64(r.chainTxs(a.height, b.height))
	dp := func(f func(core.Stats) uint64) float64 { return float64(f(b.peer) - f(a.peer)) }
	mean := func(name string) float64 { return ratio(tr.ms(name), tr.calls(name)) }
	ea, eb := a.edge, b.edge
	lightReads := eb.lightReads - ea.lightReads
	hits := dp(func(s core.Stats) uint64 { return s.ProofCacheHits })
	misses := dp(func(s core.Stats) uint64 { return s.ProofCacheMisses })
	msgs := tr.calls(spP2PSend) + tr.calls(spP2PBroadcast) + tr.calls(spP2PRequest)
	msgBytes := tr.bytes(spP2PSend) + tr.bytes(spP2PBroadcast) + tr.bytes(spP2PRequest)
	return map[string]metric{
		"bx.get_ms_per_update":             {ratio(tr.ms(spBxGet), u), "ms"},
		"bx.put_ms_per_update":             {ratio(tr.ms(spBxPut)+tr.ms(spBxPutDelta), u), "ms"},
		"bx.calls_per_update":              {ratio(tr.calls(spBxGet)+tr.calls(spBxPut)+tr.calls(spBxPutDelta), u), "count"},
		"reldb.verify_ms_per_read":         {mean(spReldbVerify), "ms"},
		"reldb.decode_ms_per_view_read":    {mean(spReldbDecode), "ms"},
		"core.propose_ms":                  {mean(spCorePropose), "ms"},
		"core.finalize_ms":                 {mean(spCoreFinalize), "ms"},
		"core.fetches_per_update":          {ratio(dp(func(s core.Stats) uint64 { return s.FetchesServed }), u), "count"},
		"core.sync_rounds_per_update":      {ratio(dp(func(s core.Stats) uint64 { return s.SyncRounds }), u), "count"},
		"core.resyncs_per_update":          {ratio(dp(func(s core.Stats) uint64 { return s.ResyncsTriggered }), u), "count"},
		"core.rpc_retries_per_update":      {ratio(dp(func(s core.Stats) uint64 { return s.RPCRetries }), u), "count"},
		"core.proposal_retries_per_update": {ratio(dp(func(s core.Stats) uint64 { return s.ProposalRetries }), u), "count"},
		"core.txs_per_batch": {ratio(dp(func(s core.Stats) uint64 { return s.BatchTxs }),
			dp(func(s core.Stats) uint64 { return s.BatchCommits })), "count"},
		"core.proof_cache_hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"node.blocks_per_update":           {ratio(blocks, u), "count"},
		"node.txs_per_block":               {ratio(txs, blocks), "count"},
		"node.txs_per_update":              {ratio(txs, u), "count"},
		"node.events_per_update":           {ratio(float64(b.events-a.events), u), "count"},
		"consensus.seal_ms_per_block":      {ratio(tr.ms(spConsensusSeal), blocks), "ms"},
		"consensus.verify_calls_per_block": {ratio(tr.calls(spConsensusVerify), blocks), "count"},
		"consensus.verify_ms_per_block":    {ratio(tr.ms(spConsensusVerify), blocks), "ms"},
		"contract.invokes_per_tx":          {ratio(tr.calls(spContractInvoke), txs), "count"},
		"contract.invoke_ms_per_update":    {ratio(tr.ms(spContractInvoke), u), "ms"},
		"p2p.msgs_per_update":              {ratio(msgs, u), "count"},
		"p2p.bytes_per_update":             {ratio(msgBytes, u), "B"},
		"p2p.request_ms":                   {mean(spP2PRequest), "ms"},
		"store.appends_per_update":         {ratio(tr.calls(spStoreAppend), u), "count"},
		"store.syncs_per_update":           {ratio(tr.calls(spStoreSync), u), "count"},
		"api.row_ms":                       {mean(spAPIRow), "ms"},
		"api.handler_ms_per_read":          {ratio(eb.rowSeconds-ea.rowSeconds, eb.rowCount-ea.rowCount) * 1000, "ms"},
		"api.rows_ms":                      {mean(spAPIRows), "ms"},
		"api.view_cache_hit_ratio":         {ratio(eb.viewHits-ea.viewHits, eb.viewHits-ea.viewHits+eb.viewMisses-ea.viewMisses), "ratio"},
		"api.update_ms":                    {mean(spAPIUpdate), "ms"},
		"api.writes_per_batch":             {ratio(eb.writes-ea.writes, eb.batches-ea.batches), "count"},
		"light.read_ms":                    {mean(spLightRead), "ms"},
		"light.cache_hit_ratio":            {ratio(eb.light.CacheHits-ea.light.CacheHits, lightReads), "ratio"},
		"light.wire_bytes_per_read":        {ratio(eb.light.WireBytes-ea.light.WireBytes, lightReads), "B"},
		"light.head_refreshes_per_read":    {ratio(eb.light.HeadRefreshes-ea.light.HeadRefreshes, lightReads), "count"},
		"light.stale_retries_per_read":     {ratio(eb.light.StaleRetries-ea.light.StaleRetries, lightReads), "count"},
		"runtime.alloc_kb_per_op":          {ratio(float64(b.alloc-a.alloc)/1024, ops), "KB"},
		"runtime.gc_cycles_per_kop":        {ratio(float64(b.gcs-a.gcs)*1000, ops), "count"},
	}
}
