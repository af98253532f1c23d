package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// read_mix: one geeserve at n=1e5, K=10, 20% labelled, preloaded in
// set-up with 1M planted-block edges and a warm IVF index. One
// closed-loop reader repeats a fixed round of 8 single-row reads, 2
// 64-row batched reads and 1 approximate top-10 query; a second client
// ticks on a fixed schedule, each tick one 64-edge insert and then one
// binary-wire replica Sync. It uses the same dyn/server layers as ingest
// in the opposite proportion: writes are sparse; snapshot scans, wire
// encoding and replica deltas are dense.
type mixSize struct {
	n, k         int
	labelFrac    float64
	preload      int
	preloadChunk int
	batch        int
	tick         time.Duration
	recallProbes int
}

var (
	mixFull  = mixSize{n: 100_000, k: 10, labelFrac: 0.2, preload: 1_000_000, preloadChunk: 50_000, batch: 64, tick: time.Second, recallProbes: 50}
	mixSmall = mixSize{n: 3_000, k: 4, labelFrac: 0.2, preload: 20_000, preloadChunk: 5_000, batch: 16, tick: 20 * time.Millisecond, recallProbes: 10}
)

const (
	singleReads = 8
	batchReads  = 2
	topK        = 10
	minRecall   = 0.9
)

// mixLog is what the two read_mix clients did in one window.
type mixLog struct {
	start      time.Time // the window's start
	served     []event   // reader requests answered, per round
	rounds     []float64 // seconds per reader round
	single     []float64
	batched    []float64
	neighbors  []float64
	requests   int // reader requests answered
	roundTrips float64
	ticks      []float64 // seconds from a tick's due time to its replica sync
	writes     []float64 // seconds from a tick's due time to its insert ack
	syncs      []float64
	inserts    []dyn.Batch
	attempted  int64
	failed     int64
	problems   []string
}

func (l *mixLog) fail(format string, args ...any) {
	l.failed++
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

func runReadMix(cfg config) (*result, error) {
	res := newResult(cfg.traced)
	size := mixFull
	if cfg.small {
		size = mixSmall
	}
	h, err := startHost(cfg, size.n, size.k, 1)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	hc := httpClient()
	c := client.New(h.url, hc)
	ctx := context.Background()
	y0, seeded, err := seedLabels(ctx, c, size.n, size.k, size.labelFrac, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.attempted += seeded
	r := xrand.NewStream(cfg.seed, 2)
	var preload []dyn.Batch
	for lo := 0; lo < size.preload; lo += size.preloadChunk {
		edges := make([]graph.Edge, min(size.preloadChunk, size.preload-lo))
		for i := range edges {
			u, v := blockEdge(r, size.n, size.k, inBlock)
			edges[i] = graph.Edge{U: u, V: v, W: 1}
		}
		res.attempted++
		if _, err := c.InsertEdges(ctx, edges); err != nil {
			return nil, fmt.Errorf("preloading edges: %w", err)
		}
		preload = append(preload, dyn.Batch{Insert: edges})
	}
	if err := warmIndex(ctx, c); err != nil {
		return nil, err
	}
	bc := client.New(h.url, hc, client.WithWire(client.Binary))
	rep := client.NewReplica(bc)
	res.attempted++
	if err := rep.Bootstrap(ctx); err != nil {
		return nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	res.e2e["setup_s"] = time.Since(processStart).Seconds()
	fmt.Fprintf(os.Stderr, "# read_mix: n=%d K=%d preload=%d edges setup %.2fs\n",
		size.n, size.k, size.preload, res.e2e["setup_s"])

	mx := &mixer{size: size, c: c, rep: rep, rRead: xrand.NewStream(cfg.seed, 3), rWrite: xrand.NewStream(cfg.seed, 4)}
	var unmeasured, measured []*mixLog
	var rates []float64
	repBefore := rep.Stats()
	ctr, err := runSegments(cfg, res, h, hc, func(spans *spanLog, d time.Duration, m bool) {
		l := mx.run(ctx, spans, d)
		if m {
			measured = append(measured, l)
			// One slice per tick, so every slice holds one insert,
			// one sync and the index rebuild they set off.
			rates = append(rates, sliceRates(l.start, d, size.tick, l.served)...)
		} else {
			unmeasured = append(unmeasured, l)
		}
	})
	if err != nil {
		return nil, err
	}
	repAfter := rep.Stats()
	rss, err := peakRSSMiB(h.pid)
	if err != nil {
		return nil, err
	}
	for _, lg := range append(unmeasured, measured...) {
		res.attempted += lg.attempted
		res.failed += lg.failed
		res.problems = append(res.problems, lg.problems...)
	}
	l := mergeMix(measured)
	syncs := float64(repAfter.Syncs - repBefore.Syncs)
	bytesPerSync := ratio(float64(repAfter.DeltaBytes-repBefore.DeltaBytes), syncs)
	res.e2e["ops_per_s"] = quantile(rates, 0.5)
	res.e2e["op_p50_ms"] = 1e3 * quantile(l.rounds, 0.5)
	res.e2e["alt_p50_ms"] = 1e3 * quantile(l.neighbors, 0.5)
	res.e2e["peak_rss_mib"] = rss
	fmt.Fprintf(os.Stderr, "# read_mix: %d rounds (p50 %.2fms), %.0f requests/s (median of %d one-second slices); read_p50_ms %.3f read_p99_ms %.3f (%d); batch_read_p99_ms %.3f (%d); neighbors_p50_ms %.3f neighbors_p99_ms %.3f (%d)\n",
		len(l.rounds), res.e2e["op_p50_ms"], res.e2e["ops_per_s"], len(rates), 1e3*quantile(l.single, 0.5), 1e3*quantile(l.single, 0.99), len(l.single),
		1e3*quantile(l.batched, 0.99), len(l.batched), 1e3*quantile(l.neighbors, 0.5), 1e3*quantile(l.neighbors, 0.99), len(l.neighbors))
	fmt.Fprintf(os.Stderr, "# read_mix: %.0f index builds, %.1fs building, in the window\n", ctr["index_builds"], ctr["index_build_s"])
	fmt.Fprintf(os.Stderr, "# read_mix: %d ticks (due-to-synced p50 %.2fms); write_p50_ms %.3f write_p99_ms %.3f; replica_sync_p50_ms %.3f replica_bytes_per_sync %.0f; server_rss_mib %.0f\n",
		len(l.ticks), 1e3*quantile(l.ticks, 0.5), 1e3*quantile(l.writes, 0.5), 1e3*quantile(l.writes, 0.99),
		1e3*quantile(l.syncs, 0.5), bytesPerSync, rss)

	var ticks []dyn.Batch
	for _, lg := range append(unmeasured, measured...) {
		ticks = append(ticks, lg.inserts...)
	}
	z, err := checkFinal(ctx, res, c, size.k, 1, y0, append(append([]dyn.Batch(nil), preload...), ticks...))
	if err != nil {
		return nil, err
	}
	if z != nil {
		if err := checkReplica(ctx, res, bc, rep); err != nil {
			return nil, err
		}
		if err := checkRecall(ctx, res, c, z, size, cfg.seed); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		coalescerLayers(res, ctr, sum(l.writes))
		if err := wireLayers(res, hc, h.url, z, y0, size.k); err != nil {
			return nil, err
		}
		h.stop()
		handlerLayers(res, h.handlers, l.roundTrips, l.requests+2*len(l.ticks))
		res.layers["replica.sync_s"] = mean(l.syncs)
		res.layers["replica.rows_per_sync"] = ratio(float64(repAfter.RowsApplied-repBefore.RowsApplied), syncs)
		res.layers["replica.resyncs"] = float64(repAfter.Resyncs - repBefore.Resyncs)
		res.layers["replica.bytes_per_sync"] = bytesPerSync
		if z != nil {
			clusterLayers(res, z, size, cfg.seed)
		}
		if err := replayDyn(res, size.n, size.k, 1, y0, preload, ticks); err != nil {
			return nil, err
		}
		setOverhead(res, 1e3*quantile(mergeMix(unmeasured).rounds, 0.5), res.e2e["op_p50_ms"])
	}
	return res, nil
}

// mergeMix pools several windows' logs.
func mergeMix(logs []*mixLog) *mixLog {
	out := &mixLog{}
	for _, l := range logs {
		out.rounds = append(out.rounds, l.rounds...)
		out.single = append(out.single, l.single...)
		out.batched = append(out.batched, l.batched...)
		out.neighbors = append(out.neighbors, l.neighbors...)
		out.requests += l.requests
		out.roundTrips += l.roundTrips
		out.ticks = append(out.ticks, l.ticks...)
		out.writes = append(out.writes, l.writes...)
		out.syncs = append(out.syncs, l.syncs...)
	}
	return out
}

// warmIndex kicks the IVF build and waits until the index covers the
// published epoch (servers below the exact-scan size never index).
func warmIndex(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, err := c.Neighbors(ctx, server.NeighborsRequest{V: 0, K: topK, Mode: "approx"}); err != nil {
			return fmt.Errorf("warming the index: %w", err)
		}
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if !st.Index.Indexing || (st.Index.Builds > 0 && !st.Index.Stale && st.Index.Epoch == st.Dyn.Epoch) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("index never caught up with epoch %d", st.Dyn.Epoch)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mixer holds the two read_mix clients' state across windows.
type mixer struct {
	size          mixSize
	c             *client.Client
	rep           *client.Replica
	rRead, rWrite *xrand.Rand
}

// run drives both clients for one window and waits for both; a tick in
// flight when the window closes is awaited, so every write's outcome is
// known.
func (m *mixer) run(ctx context.Context, spans *spanLog, window time.Duration) *mixLog {
	start := time.Now()
	l := &mixLog{start: start}
	deadline := start.Add(window)
	var mu sync.Mutex // guards l between the two clients
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			m.round(ctx, spans, l, &mu)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * m.size.tick)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			m.tickOnce(ctx, spans, l, &mu, due)
		}
	}()
	wg.Wait()
	return l
}

// round is one fixed reader round, timed as a whole.
func (m *mixer) round(ctx context.Context, spans *spanLog, l *mixLog, mu *sync.Mutex) {
	n := m.size.n
	tr := spans.newTrace()
	start := time.Now()
	var single, batched []float64
	var errs []error
	var done int
	call := func(name string, f func() error) time.Duration {
		d, err := spans.timed(tr, name, f)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		} else {
			done++
		}
		return d
	}
	for i := 0; i < singleReads; i++ {
		v := graph.NodeID(m.rRead.Intn(n))
		single = append(single, call("client.embedding", func() error {
			resp, err := m.c.Embedding(ctx, v)
			if err == nil && len(resp.Row) != m.size.k {
				err = fmt.Errorf("row of %d columns", len(resp.Row))
			}
			return err
		}).Seconds())
	}
	for i := 0; i < batchReads; i++ {
		vs := make([]graph.NodeID, 64)
		for j := range vs {
			vs[j] = graph.NodeID(m.rRead.Intn(n))
		}
		batched = append(batched, call("client.embeddings", func() error {
			resp, err := m.c.Embeddings(ctx, vs)
			if err == nil && len(resp.Rows) != len(vs) {
				err = fmt.Errorf("%d rows for %d vertices", len(resp.Rows), len(vs))
			}
			return err
		}).Seconds())
	}
	q := uint32(m.rRead.Intn(n))
	nbr := call("client.neighbors", func() error {
		resp, err := m.c.Neighbors(ctx, server.NeighborsRequest{V: q, K: topK, Mode: "approx"})
		if err == nil {
			err = checkNeighbors(resp, q)
		}
		return err
	}).Seconds()
	d := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	l.attempted += singleReads + batchReads + 1
	for _, err := range errs {
		l.fail("reader: %v", err)
	}
	l.requests += done
	l.served = append(l.served, event{at: start.Add(d), n: float64(done)})
	l.roundTrips += d.Seconds()
	l.rounds = append(l.rounds, d.Seconds())
	l.single = append(l.single, single...)
	l.batched = append(l.batched, batched...)
	l.neighbors = append(l.neighbors, nbr)
}

// checkNeighbors checks the shape of a top-k answer: topK distinct rows,
// not the query, ascending by distance.
func checkNeighbors(resp server.NeighborsResponse, q uint32) error {
	if len(resp.Neighbors) != topK {
		return fmt.Errorf("%d neighbours, want %d", len(resp.Neighbors), topK)
	}
	seen := map[uint32]bool{}
	for i, nb := range resp.Neighbors {
		if nb.V == q || seen[nb.V] {
			return fmt.Errorf("neighbour %d repeats or is the query", nb.V)
		}
		seen[nb.V] = true
		if i > 0 && nb.Dist < resp.Neighbors[i-1].Dist {
			return fmt.Errorf("neighbours not ascending by distance")
		}
	}
	return nil
}

// tickOnce sends one insert and then syncs the replica; both are timed
// from the tick's due time, so a stall shows in the ticks after it.
func (m *mixer) tickOnce(ctx context.Context, spans *spanLog, l *mixLog, mu *sync.Mutex, due time.Time) {
	edges := make([]graph.Edge, m.size.batch)
	for i := range edges {
		u, v := blockEdge(m.rWrite, m.size.n, m.size.k, inBlock)
		edges[i] = graph.Edge{U: u, V: v, W: 1}
	}
	tr := spans.newTrace()
	var rt float64
	d, err := spans.timed(tr, "client.insert", func() error {
		_, err := m.c.InsertEdges(ctx, edges)
		return err
	})
	rt += d.Seconds()
	acked := time.Since(due)
	var syncErr error
	if err == nil {
		d, syncErr = spans.timed(tr, "client.replica_sync", func() error {
			_, err := m.rep.Sync(ctx)
			return err
		})
		rt += d.Seconds()
	}
	synced := time.Since(due)
	mu.Lock()
	defer mu.Unlock()
	l.attempted += 2
	l.roundTrips += rt
	if err != nil {
		l.fail("tick insert: %v", err)
		return
	}
	l.inserts = append(l.inserts, dyn.Batch{Insert: edges})
	l.writes = append(l.writes, acked.Seconds())
	if syncErr != nil {
		l.fail("replica sync: %v", syncErr)
		return
	}
	l.syncs = append(l.syncs, d.Seconds())
	l.ticks = append(l.ticks, synced.Seconds())
}

// checkReplica syncs the replica once more and compares it bit for bit
// with the binary /v1/snapshot.
func checkReplica(ctx context.Context, res *result, bc *client.Client, rep *client.Replica) error {
	if _, err := rep.Sync(ctx); err != nil {
		return fmt.Errorf("final replica sync: %w", err)
	}
	snap, err := bc.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("binary snapshot: %w", err)
	}
	local := rep.Snapshot()
	if local == nil || local.Epoch != snap.Epoch {
		res.problem("replica not at the snapshot's epoch %d", snap.Epoch)
		return nil
	}
	n, k := local.Dims()
	if n != len(snap.Z) || k != snap.K {
		res.problem("replica shape %dx%d, snapshot %dx%d", n, k, len(snap.Z), snap.K)
		return nil
	}
	row := make([]float64, k)
	for v := 0; v < n; v++ {
		got := local.CopyRow(v, row)
		for j, x := range snap.Z[v] {
			if math.Float64bits(got[j]) != math.Float64bits(x) {
				res.problem("replica row %d col %d: %v, snapshot %v", v, j, got[j], x)
				return nil
			}
		}
		if local.Y[v] != snap.Y[v] {
			res.problem("replica label of %d: %d, snapshot %d", v, local.Y[v], snap.Y[v])
			return nil
		}
	}
	return nil
}

// checkRecall waits until the IVF index covers the final epoch, then
// compares approximate top-10 answers with the benchmark's own scan.
func checkRecall(ctx context.Context, res *result, c *client.Client, z []float64, size mixSize, seed uint64) error {
	if err := warmIndex(ctx, c); err != nil {
		return err
	}
	r := xrand.NewStream(seed, 5)
	var recall float64
	for i := 0; i < size.recallProbes; i++ {
		q := r.Intn(size.n)
		res.attempted++
		resp, err := c.Neighbors(ctx, server.NeighborsRequest{V: uint32(q), K: topK, Mode: "approx"})
		if err != nil {
			res.failed++
			res.problem("recall query: %v", err)
			continue
		}
		ids := make([]int, len(resp.Neighbors))
		for j, nb := range resp.Neighbors {
			ids[j] = int(nb.V)
		}
		recall += recallAt(z, size.k, q, topK, ids)
	}
	recall /= float64(size.recallProbes)
	fmt.Fprintf(os.Stderr, "# read_mix: approximate recall@10 %.3f over %d queries\n", recall, size.recallProbes)
	if recall < minRecall {
		res.problem("approximate recall@10 %.3f below %.2f", recall, minRecall)
	}
	return nil
}

// wireLayers fetches raw binary delta frames over the last few epochs
// and times their decoding, and times encoding the final snapshot as a
// dense frame.
func wireLayers(res *result, hc *http.Client, base string, z []float64, y []int32, k int) error {
	c := client.New(base, hc)
	h, err := c.Health(context.Background())
	if err != nil {
		return err
	}
	var bytes, rows int
	var decode []float64
	for back := uint64(1); back <= 8 && back <= h.Epoch; back *= 2 {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/delta?from=%d", base, h.Epoch-back), nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", wire.ContentType)
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		t := time.Now()
		f, err := wire.DecodeFrame(body)
		decode = append(decode, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("decoding a delta frame: %w", err)
		}
		bytes += len(body)
		rows += int(f.NRows)
	}
	res.layers["wire.delta_bytes_per_row"] = ratio(float64(bytes), float64(rows))
	res.layers["wire.delta_decode_s"] = mean(decode)
	if z == nil {
		return nil
	}
	rows32 := make([]float32, len(z))
	for i, x := range z {
		rows32[i] = float32(x)
	}
	f := &wire.Frame{Header: wire.Header{Kind: wire.KindSnapshot, K: uint32(k), Epoch: h.Epoch, N: uint32(len(y))}, Y: y, Rows: rows32}
	t := time.Now()
	if _, err := f.WriteTo(io.Discard); err != nil {
		return fmt.Errorf("encoding a snapshot frame: %w", err)
	}
	res.layers["wire.snapshot_encode_s"] = time.Since(t).Seconds()
	return nil
}

// clusterLayers times the IVF build, IVF search and exact TopK on the
// final snapshot, called directly, and their recall against the
// benchmark's own scan.
func clusterLayers(res *result, z []float64, size mixSize, seed uint64) {
	workers := runtime.GOMAXPROCS(0)
	x := &mat.Dense{R: size.n, C: size.k, Data: z}
	t := time.Now()
	ix := cluster.BuildIVF(workers, x, cluster.IVFOptions{Seed: seed})
	res.layers["cluster.ivf_build_s"] = time.Since(t).Seconds()
	r := xrand.NewStream(seed, 6)
	var search, topk []float64
	var recall float64
	for i := 0; i < size.recallProbes; i++ {
		q := r.Intn(size.n)
		row := x.Row(q)
		t := time.Now()
		nb := ix.Search(workers, row, topK, cluster.L2, q, 0)
		search = append(search, time.Since(t).Seconds())
		t = time.Now()
		cluster.TopK(workers, x, row, topK, cluster.L2, q)
		topk = append(topk, time.Since(t).Seconds())
		ids := make([]int, len(nb))
		for j, n := range nb {
			ids[j] = n.V
		}
		recall += recallAt(z, size.k, q, topK, ids)
	}
	res.layers["cluster.ivf_search_s"] = mean(search)
	res.layers["cluster.topk_s"] = mean(topk)
	res.layers["cluster.ivf_recall_at_10"] = recall / float64(size.recallProbes)
}
