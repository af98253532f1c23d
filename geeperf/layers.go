package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/dyn"
	"repro/internal/shard"
)

// Per-layer measurements shared by the serving workloads' traced runs.

// maxReplay bounds how many acked requests the dyn replay times: at
// n=1e6 one publish costs tens of milliseconds.
const maxReplay = 300

// replayDyn replays a workload's acked request stream into fresh
// embedders in ManualPublish mode, timing Apply, Publish and Delta apart.
// preload is applied untimed first (read_mix's set-up edges). With
// shards > 1 each request is split with shard.Split, as the router does,
// and every target shard applies and publishes its part.
func replayDyn(res *result, n, k, shards int, y0 []int32, preload, stream []dyn.Batch) error {
	y := append([]int32(nil), y0...)
	opts := dyn.Options{K: k, ManualPublish: true}
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heapBefore := float64(ms0.HeapInuse)
	var ds []*dyn.DynamicEmbedder
	var part *shard.Partition
	if shards > 1 {
		p, err := shard.NewPartition(n, shards)
		if err != nil {
			return err
		}
		sh, err := shard.NewShards(p, y, opts)
		if err != nil {
			return err
		}
		for _, s := range sh {
			ds = append(ds, s.D)
		}
		part = p
	} else {
		d, err := dyn.New(n, y, opts)
		if err != nil {
			return err
		}
		ds = []*dyn.DynamicEmbedder{d}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.layers["dyn.heap_bytes"] = float64(ms.HeapInuse) - heapBefore

	split := func(b dyn.Batch) ([]dyn.Batch, int) {
		if part == nil {
			return []dyn.Batch{b}, 0
		}
		return shard.Split(part, b)
	}
	for _, b := range preload {
		subs, _ := split(b)
		for i, sub := range subs {
			if err := ds[i].Apply(sub); err != nil {
				return fmt.Errorf("replaying preload: %w", err)
			}
			ds[i].Publish()
		}
	}
	if len(stream) > maxReplay {
		stream = stream[:maxReplay]
	}
	var apply, publish, deltas, splits []float64
	var allocs, dirty []float64
	var edgeOps, cut int
	for _, b := range stream {
		t := time.Now()
		subs, c := split(b)
		splits = append(splits, time.Since(t).Seconds())
		cut += c
		edgeOps += len(b.Insert) + len(b.Delete)
		for i, sub := range subs {
			if shard.Ops(sub) == 0 {
				continue
			}
			d := ds[i]
			from := d.Epoch()
			span := res.spans.newTrace()
			t, err := res.spans.timed(span, "dyn.Apply", func() error { return d.Apply(sub) })
			if err != nil {
				return fmt.Errorf("replaying an acked request: %w", err)
			}
			apply = append(apply, t.Seconds())
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			t, _ = res.spans.timed(span, "dyn.Publish", func() error { d.Publish(); return nil })
			runtime.ReadMemStats(&ms)
			publish = append(publish, t.Seconds())
			allocs = append(allocs, float64(ms.TotalAlloc-before))
			var dl *dyn.Delta
			t, _ = res.spans.timed(span, "dyn.Delta", func() error { dl = d.Delta(from); return nil })
			deltas = append(deltas, t.Seconds())
			if !dl.Resync {
				dirty = append(dirty, float64(len(dl.Rows)))
			}
		}
	}
	res.layers["dyn.apply_s"] = mean(apply)
	res.layers["dyn.publish_p50_s"] = quantile(publish, 0.5)
	res.layers["dyn.publish_p99_s"] = quantile(publish, 0.99)
	res.layers["dyn.publish_alloc_bytes"] = mean(allocs)
	res.layers["dyn.dirty_rows_per_publish"] = mean(dirty)
	res.layers["dyn.delta_s"] = mean(deltas)
	if part != nil {
		res.layers["shard.split_s"] = mean(splits)
		res.layers["shard.cut_edge_fraction"] = ratio(float64(cut), float64(edgeOps))
	}
	fmt.Fprintf(os.Stderr, "# dyn replay: %d requests, %d publishes, publish p50 %.2fms\n",
		len(stream), len(publish), 1e3*res.layers["dyn.publish_p50_s"])
	return nil
}

// counterSeries are the /metrics series a run differences around its
// measured segments, each summed over every child whose labels match.
var counterSeries = []struct {
	key, name string
	match     map[string]string
}{
	{"requests", "gee_coalescer_requests_total", nil},
	{"flushes", "gee_coalescer_flushes_total", nil},
	{"queue_sum", "gee_write_stage_seconds_sum", map[string]string{"stage": "queue"}},
	{"queue_count", "gee_write_stage_seconds_count", map[string]string{"stage": "queue"}},
	{"ack_sum", "gee_coalescer_ack_wait_seconds_sum", nil},
	{"ack_count", "gee_coalescer_ack_wait_seconds_count", nil},
	{"stages_sum", "gee_write_stage_seconds_sum", nil},
	{"index_builds", "gee_index_builds_total", nil},
	{"index_build_s", "gee_index_build_seconds_sum", nil},
}

// counters holds summed counterSeries values, or their differences.
type counters map[string]float64

func readCounters(hc *http.Client, base string) (counters, error) {
	samples, err := scrape(hc, base)
	if err != nil {
		return nil, err
	}
	c := counters{}
	for _, s := range counterSeries {
		c[s.key] = sumSamples(samples, s.name, s.match)
	}
	return c, nil
}

// runSegments runs the measuring window of a serving workload. Untraced,
// it is one measured segment. Traced, it is four segments of a quarter
// each, untraced and traced in turn, so a drift over the window falls on
// both sides of the tracing overhead; the traced segments are the
// measured ones, record spans and time the handlers. It returns the
// server's counters differenced over the measured segments.
func runSegments(cfg config, res *result, h *host, hc *http.Client, seg func(spans *spanLog, d time.Duration, measured bool)) (counters, error) {
	parts, d := 1, cfg.window
	if cfg.traced {
		parts, d = 4, cfg.window/4
	}
	total := counters{}
	for i := 0; i < parts; i++ {
		if cfg.traced && i%2 == 0 {
			seg(nil, d, false)
			continue
		}
		before, err := readCounters(hc, h.url)
		if err != nil {
			return nil, err
		}
		if h.handlers != nil {
			h.handlers.on.Store(true)
		}
		seg(res.spans, d, true)
		if h.handlers != nil {
			h.handlers.on.Store(false)
		}
		after, err := readCounters(hc, h.url)
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			total[k] += v - before[k]
		}
	}
	return total, nil
}

// coalescerLayers derives the coalescer and write-stage numbers from the
// server's counters over the measured segments. clientWriteS is the
// summed client-observed submit-to-ack time of the writes in them.
func coalescerLayers(res *result, c counters, clientWriteS float64) {
	res.layers["coalescer.requests_per_fold"] = ratio(c["requests"], c["flushes"])
	res.layers["coalescer.queue_wait_s"] = ratio(c["queue_sum"], c["queue_count"])
	res.layers["coalescer.ack_wait_s"] = ratio(c["ack_sum"], c["ack_count"])
	res.layers["server.write_stages_s"] = c["stages_sum"]
	res.layers["client.write_total_s"] = clientWriteS
}

// handlerLayers reports the in-process handler times per route and the
// client round trip beyond them.
func handlerLayers(res *result, ht *handlerTimes, clientRoundTripS float64, clientRequests int) {
	for route, name := range map[string]string{
		"embedding":  "server.embedding_s",
		"embeddings": "server.embeddings_s",
		"neighbors":  "server.neighbors_s",
		"delta":      "server.delta_s",
		"edges":      "server.edges_s",
	} {
		res.layers[name], _ = ht.stats(route)
	}
	_, handlerSum := ht.stats("")
	if clientRequests > 0 {
		res.layers["client.transport_s"] = (clientRoundTripS - handlerSum) / float64(clientRequests)
	}
}
