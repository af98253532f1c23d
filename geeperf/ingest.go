package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// ingest and ingest_sharded: one geeserve at n=1e6, K=10 (two shards for
// ingest_sharded), 20% of vertices labelled in set-up. At this size dyn's
// publish is nearly all of the write path, so this is where publish work
// shows. Two closed-loop writers send 64-op requests; each writer
// repeats a cycle of 20 requests: 15 inserts (90% of edges inside the
// planted block), 4 deletes of its own oldest live insert (20%), and 1
// relabel of vertices only it relabels (5%).
type ingestSize struct {
	n, k      int
	labelFrac float64
	writers   int
	batch     int
}

var (
	ingestFull  = ingestSize{n: 1_000_000, k: 10, labelFrac: 0.2, writers: 2, batch: 64}
	ingestSmall = ingestSize{n: 4_000, k: 4, labelFrac: 0.2, writers: 2, batch: 16}
)

const (
	inBlock = 0.9
	// readBackEvery reads back one acked insert in this many (counted
	// per writer): a read-your-writes read of its first edge's
	// endpoints.
	readBackEvery = 2
)

// cycle is one writer's repeating request pattern: i=insert, d=delete,
// l=relabel. Every delete follows at least three inserts, so a writer
// always has a live batch of its own to delete.
const cycle = "iiidiiiidiliiidiiiid"

// ackedWrite is one acknowledged request.
type ackedWrite struct {
	batch   dyn.Batch
	at      time.Time // when the ack arrived
	latency time.Duration
}

// writerLog is what one closed-loop writer did in one window.
type writerLog struct {
	acked      []ackedWrite
	readBacks  []float64 // seconds
	roundTrips float64   // summed seconds of every request
	attempted  int64
	failed     int64
	problems   []string
	end        time.Time // the window's deadline
}

// ingestWriter is one closed-loop writer. It keeps its generator and its
// live batches across windows, so the two halves of a traced run are
// one stream.
type ingestWriter struct {
	id      int
	size    ingestSize
	c       *client.Client
	sharded bool
	r       *xrand.Rand
	next    int            // position in the request stream
	inserts int            // acked inserts
	live    [][]graph.Edge // own acked inserts not yet deleted, oldest first
}

func runIngest(cfg config, shards int) (*result, error) {
	res := newResult(cfg.traced)
	size := ingestFull
	if cfg.small {
		size = ingestSmall
	}
	h, err := startHost(cfg, size.n, size.k, shards)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	ready := time.Since(processStart).Seconds()
	hc := httpClient()
	c := client.New(h.url, hc)
	ctx := context.Background()
	y0, seeded, err := seedLabels(ctx, c, size.n, size.k, size.labelFrac, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.attempted += seeded
	res.e2e["setup_s"] = time.Since(processStart).Seconds()
	fmt.Fprintf(os.Stderr, "# ingest: n=%d K=%d shards=%d writers=%d setup %.2fs (server ready at %.2fs)\n",
		size.n, size.k, shards, size.writers, res.e2e["setup_s"], ready)

	writers := make([]*ingestWriter, size.writers)
	for w := range writers {
		writers[w] = &ingestWriter{id: w, size: size, c: c, sharded: shards > 1,
			r: xrand.NewStream(cfg.seed, uint64(10+w))}
	}
	var unmeasured, logs []*writerLog
	var rates []float64
	ctr, err := runSegments(cfg, res, h, hc, func(spans *spanLog, d time.Duration, measured bool) {
		l := runWriters(ctx, writers, spans, d)
		if measured {
			logs = append(logs, l...)
			rates = append(rates, ackRates(l, d)...)
		} else {
			unmeasured = append(unmeasured, l...)
		}
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(h.pid)
	if err != nil {
		return nil, err
	}
	all := append(unmeasured, logs...)
	for _, l := range all {
		res.attempted += l.attempted
		res.failed += l.failed
		res.problems = append(res.problems, l.problems...)
	}
	var lat, readBacks []float64
	var roundTrips float64
	for _, l := range logs {
		readBacks = append(readBacks, l.readBacks...)
		roundTrips += l.roundTrips
		for _, a := range l.acked {
			lat = append(lat, a.latency.Seconds())
		}
	}
	res.e2e["ops_per_s"] = quantile(rates, 0.5)
	res.e2e["op_p50_ms"] = 1e3 * quantile(lat, 0.5)
	res.e2e["alt_p50_ms"] = 1e3 * quantile(readBacks, 0.5)
	res.e2e["peak_rss_mib"] = rss
	fmt.Fprintf(os.Stderr, "# ingest: %d writes: write_ops_per_s %.0f (median of %d one-second slices) write_p50_ms %.2f write_p90_ms %.2f write_p99_ms %.2f; %d read-backs p50 %.2fms; server_rss_mib %.0f\n",
		len(lat), res.e2e["ops_per_s"], len(rates), res.e2e["op_p50_ms"], 1e3*quantile(lat, 0.9), 1e3*quantile(lat, 0.99),
		len(readBacks), res.e2e["alt_p50_ms"], rss)

	stream := ackedStream(all)
	if _, err := checkFinal(ctx, res, c, size.k, shards, y0, stream); err != nil {
		return nil, err
	}
	if cfg.traced {
		h.stop()
		coalescerLayers(res, ctr, sum(lat))
		// One shard records each write's queue, fold, publish and ack
		// stages once; they must fit inside the submit-to-ack time its
		// client saw and, at full size, where publish dominates, cover
		// most of it (at test size HTTP and JSON can be most of a write).
		if server, client := ctr["stages_sum"], sum(lat); shards == 1 && (server > client || (!cfg.small && server < client/2)) {
			res.problem("server write stages sum to %.3fs against %.3fs of client-observed writes", server, client)
		}
		handlerLayers(res, h.handlers, roundTrips, len(lat)+len(readBacks))
		if shards > 1 {
			res.layers["shard.folds_per_request"] = ratio(ctr["flushes"], float64(len(lat)))
		}
		if err := replayDyn(res, size.n, size.k, shards, y0, nil, stream); err != nil {
			return nil, err
		}
		setOverhead(res, 1e3*quantile(latencies(unmeasured), 0.5), res.e2e["op_p50_ms"])
	}
	return res, nil
}

// runWriters runs every writer until the window closes and returns
// their logs; a request in flight when the window closes is awaited.
func runWriters(ctx context.Context, writers []*ingestWriter, spans *spanLog, window time.Duration) []*writerLog {
	deadline := time.Now().Add(window)
	logs := make([]*writerLog, len(writers))
	var wg sync.WaitGroup
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = w.run(ctx, spans, deadline)
		}()
	}
	wg.Wait()
	return logs
}

// ackRates is the acked edge and label ops per second in each
// one-second slice of one window of the writers' logs.
func ackRates(logs []*writerLog, d time.Duration) []float64 {
	var events []event
	for _, l := range logs {
		for _, a := range l.acked {
			events = append(events, event{at: a.at, n: float64(shard.Ops(a.batch))})
		}
	}
	return sliceRates(logs[0].end.Add(-d), d, time.Second, events)
}

// run issues requests until the deadline passes.
func (w *ingestWriter) run(ctx context.Context, spans *spanLog, deadline time.Time) *writerLog {
	l := &writerLog{end: deadline}
	for time.Now().Before(deadline) {
		var b dyn.Batch
		kind := cycle[w.next%len(cycle)]
		switch kind {
		case 'd':
			b.Delete = w.live[0]
		case 'l':
			b.Labels = w.relabels()
		default:
			b.Insert = w.edges()
		}
		w.next++
		l.attempted++
		tr := spans.newTrace()
		var ack server.MutationResponse
		start := time.Now()
		d, err := spans.timed(tr, "client.write/"+string(kind), func() error {
			var err error
			switch kind {
			case 'd':
				ack, err = w.c.DeleteEdges(ctx, b.Delete)
			case 'l':
				ack, err = w.c.UpdateLabels(ctx, b.Labels)
			default:
				ack, err = w.c.InsertEdges(ctx, b.Insert)
			}
			return err
		})
		l.roundTrips += d.Seconds()
		if err != nil {
			// The request's outcome is unknown to the oracle from here on.
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("writer %d request %d: %v", w.id, w.next-1, err))
			return l
		}
		l.acked = append(l.acked, ackedWrite{batch: b, at: start.Add(d), latency: d})
		switch kind {
		case 'd':
			w.live = w.live[1:]
		case 'i':
			w.live = append(w.live, b.Insert)
			if w.inserts++; w.inserts%readBackEvery == 0 {
				w.readBack(ctx, spans, tr, l, b.Insert[0], ack)
			}
		}
	}
	return l
}

// readBack reads the endpoints of an acked edge and checks the read's
// epoch (vector) covers the ack's.
func (w *ingestWriter) readBack(ctx context.Context, spans *spanLog, tr uint64, l *writerLog, e graph.Edge, ack server.MutationResponse) {
	l.attempted++
	var resp server.BatchEmbeddingResponse
	d, err := spans.timed(tr, "client.read_back", func() error {
		var err error
		resp, err = w.c.Embeddings(ctx, []graph.NodeID{e.U, e.V})
		return err
	})
	l.roundTrips += d.Seconds()
	if err != nil {
		l.failed++
		l.problems = append(l.problems, fmt.Sprintf("writer %d read-back: %v", w.id, err))
		return
	}
	l.readBacks = append(l.readBacks, d.Seconds())
	if !covers(resp, ack, w.sharded) {
		l.problems = append(l.problems, fmt.Sprintf("writer %d: read at epoch %d %v does not cover ack %d %v",
			w.id, resp.Epoch, resp.Epochs, ack.Epoch, ack.Epochs))
	}
}

// covers is the read-your-writes check: every shard the read saw must
// have published at least as far as the ack says it had.
func covers(resp server.BatchEmbeddingResponse, ack server.MutationResponse, sharded bool) bool {
	if !sharded {
		return resp.Epoch >= ack.Epoch
	}
	if len(resp.Epochs) == 0 {
		return false
	}
	for s, e := range resp.Epochs {
		if a, ok := ack.Epochs[s]; ok && e < a {
			return false
		}
	}
	return true
}

func (w *ingestWriter) edges() []graph.Edge {
	out := make([]graph.Edge, w.size.batch)
	for i := range out {
		u, v := blockEdge(w.r, w.size.n, w.size.k, inBlock)
		out[i] = graph.Edge{U: u, V: v, W: 1}
	}
	return out
}

// relabels moves vertices this writer alone relabels (v ≡ id mod
// writers) to a random class, so acks of different writers never race
// on one label.
func (w *ingestWriter) relabels() []dyn.LabelUpdate {
	out := make([]dyn.LabelUpdate, w.size.batch)
	per := w.size.n / w.size.writers
	for i := range out {
		v := w.r.Intn(per)*w.size.writers + w.id
		out[i] = dyn.LabelUpdate{V: uint32(v), Class: int32(w.r.Intn(w.size.k))}
	}
	return out
}

func latencies(logs []*writerLog) []float64 {
	var out []float64
	for _, l := range logs {
		for _, a := range l.acked {
			out = append(out, a.latency.Seconds())
		}
	}
	return out
}

// ackedStream merges the writers' acked requests in ack order.
func ackedStream(logs []*writerLog) []dyn.Batch {
	var all []ackedWrite
	for _, l := range logs {
		all = append(all, l.acked...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	out := make([]dyn.Batch, len(all))
	for i, a := range all {
		out[i] = a.batch
	}
	return out
}
