package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/gee"
	"repro/internal/graph"
	"repro/internal/labels"
	"repro/internal/mat"
)

// embed_rmat: the paper's batch GEE on the Table I soc-orkut RMAT
// stand-in; K and the labelled share follow the paper. Divisor 32
// (n=131072, 3.66M arcs) keeps generation near a second and the peak
// heap near 250 MiB; a pair of embeddings then takes ~100 ms on two
// cores, so a 20 s window gives each implementation ~200 samples.
const (
	embedK         = 50
	embedLabelFrac = 0.1
	embedDiv       = 32
	embedSmallDiv  = 4096
	execReps       = 5
)

// embedRun is what one measuring window of embed_rmat collects.
type embedRun struct {
	ligra, sharded []float64 // seconds per EmbedCSR call
	arcs           int64     // arcs one call folds
	last           map[gee.Impl]*mat.Dense
}

func runEmbed(cfg config) (*result, error) {
	res := newResult(cfg.traced)
	workers := runtime.GOMAXPROCS(0)
	spec := bench.TableISpecs[3] // soc-orkut
	spec.Seed += cfg.seed
	div := int64(embedDiv)
	if cfg.small {
		div = embedSmallDiv
	}
	var el *graph.EdgeList
	tGen, _ := res.spans.timed(0, "gen.rmat", func() error {
		el = spec.Build(workers, div)
		return nil
	})
	var g *graph.CSR
	tCSR, _ := res.spans.timed(0, "graph.build_csr", func() error {
		g = graph.BuildCSR(workers, el)
		return nil
	})
	y := labels.SampleSemiSupervised(el.N, embedK, embedLabelFrac, cfg.seed)
	opts := gee.Options{K: embedK, Workers: workers}
	res.e2e["setup_s"] = time.Since(processStart).Seconds()
	fmt.Fprintf(os.Stderr, "# embed_rmat: n=%d arcs=%d K=%d workers=%d setup %.2fs\n",
		el.N, g.NumEdges(), embedK, workers, res.e2e["setup_s"])

	// Traced, the window is split into quarters run untraced and traced
	// in turn; the traced ones are measured, and the difference is the
	// tracing overhead.
	run, untraced := &embedRun{}, &embedRun{}
	if cfg.traced {
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				untraced.add(embedWindow(res, nil, g, y, opts, cfg.window/4))
			} else {
				run.add(embedWindow(res, res.spans, g, y, opts, cfg.window/4))
			}
		}
	} else {
		run = embedWindow(res, nil, g, y, opts, cfg.window)
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mib"] = rss
	if len(run.ligra) == 0 || len(run.sharded) == 0 {
		return nil, fmt.Errorf("embed_rmat: window too short for one embedding of each implementation")
	}
	res.e2e["ops_per_s"] = quantile(run.pairRates(), 0.5)
	res.e2e["op_p50_ms"] = 1e3 * quantile(run.ligra, 0.5)
	res.e2e["alt_p50_ms"] = 1e3 * quantile(run.sharded, 0.5)
	fmt.Fprintf(os.Stderr, "# embed_rmat: %d ligra (p50 %.1fms) + %d sharded (p50 %.1fms) embeddings\n",
		len(run.ligra), res.e2e["op_p50_ms"], len(run.sharded), res.e2e["alt_p50_ms"])

	checkEmbed(res, el, y, run.last)

	if cfg.traced {
		res.layers["gen.rmat_s"] = tGen.Seconds()
		res.layers["graph.build_csr_s"] = tCSR.Seconds()
		atomicRun, err := traceExec(res, g, y, workers)
		if err != nil {
			return nil, err
		}
		// EmbedCSR minus the exec.Run it wraps: projection set-up, Z
		// allocation and first touch.
		res.layers["gee.overhead_s"] = quantile(run.ligra, 0.5) - atomicRun
		setOverhead(res, 1e3*quantile(untraced.ligra, 0.5), res.e2e["op_p50_ms"])
	}
	return res, nil
}

// add pools another window's samples; the last embeddings are o's.
func (r *embedRun) add(o *embedRun) {
	r.ligra = append(r.ligra, o.ligra...)
	r.sharded = append(r.sharded, o.sharded...)
	r.arcs = o.arcs
	r.last = o.last
}

// pairRates is, for every pair of embeddings, the arcs the pair folded
// per second of its two calls.
func (r *embedRun) pairRates() []float64 {
	out := make([]float64, min(len(r.ligra), len(r.sharded)))
	for i := range out {
		out[i] = 2 * float64(r.arcs) / (r.ligra[i] + r.sharded[i])
	}
	return out
}

// embedWindow alternates LigraParallel and ShardedParallel embeddings
// until the window closes, always finishing a pair.
func embedWindow(res *result, spans *spanLog, g *graph.CSR, y []int32, opts gee.Options, window time.Duration) *embedRun {
	run := &embedRun{last: map[gee.Impl]*mat.Dense{}}
	start := time.Now()
	for time.Since(start) < window {
		for _, impl := range []gee.Impl{gee.LigraParallel, gee.ShardedParallel} {
			// Each embedding is an independent job: collect the previous
			// one's garbage outside the timed call, so no call pays for
			// another's Z.
			delete(run.last, impl)
			runtime.GC()
			var out *gee.Result
			res.attempted++
			d, err := spans.timed(0, "gee.EmbedCSR/"+impl.String(), func() error {
				var err error
				out, err = gee.EmbedCSR(impl, g, y, opts)
				return err
			})
			if err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "geeperf: %v: %v\n", impl, err)
				continue
			}
			run.arcs = g.NumEdges()
			run.last[impl] = out.Z
			if impl == gee.LigraParallel {
				run.ligra = append(run.ligra, d.Seconds())
			} else {
				run.sharded = append(run.sharded, d.Seconds())
			}
		}
	}
	return run
}

// checkEmbed compares each implementation's last embedding with the
// plain-loop oracle and checks per-class column mass.
func checkEmbed(res *result, el *graph.EdgeList, y []int32, last map[gee.Impl]*mat.Dense) {
	want := oracleEmbed(el.N, embedK, y, el.Edges)
	mass := classMass(embedK, y, el.Edges)
	counts := make([]float64, embedK)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	for _, impl := range []gee.Impl{gee.LigraParallel, gee.ShardedParallel} {
		z := last[impl]
		if z == nil {
			res.problem("%v: no embedding to check", impl)
			continue
		}
		if err := compareRows(z.Data, want, embedK); err != nil {
			res.problem("%v vs oracle: %v", impl, err)
		}
		for c := 0; c < embedK; c++ {
			var col float64
			for i := 0; i < z.R; i++ {
				col += z.Data[i*embedK+c]
			}
			if !closeTo(col*counts[c], mass[c]) {
				res.problem("%v: class %d column mass %.17g, edge-end weight %.17g", impl, c, col*counts[c], mass[c])
			}
		}
	}
}

// traceExec times exec.Run directly with a kernel the benchmark builds
// itself, once per strategy, and the ShardedDest plan build apart from
// the runs that reuse it. It returns the median Atomic run in seconds.
func traceExec(res *result, g *graph.CSR, y []int32, workers int) (float64, error) {
	counts := make([]float64, embedK)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	coeff := make([]float64, len(y))
	for v, c := range y {
		if c >= 0 {
			coeff[v] = 1 / counts[c]
		}
	}
	kern := exec.Kernel[float64]{Width: embedK, SrcCol: y, DstCol: y, Coeff: coeff}
	z := make([]float64, g.N*embedK)
	runOnce := func(s exec.Strategy) (time.Duration, error) {
		clear(z)
		return res.spans.timed(0, "exec.Run/"+s.String(), func() error {
			_, err := exec.Run(s, g, kern, z, exec.Options{Workers: workers})
			return err
		})
	}
	var atomic, cached []float64
	for i := 0; i < execReps; i++ {
		d, err := runOnce(exec.Atomic)
		if err != nil {
			return 0, err
		}
		atomic = append(atomic, d.Seconds())
	}
	g.InvalidatePlan()
	first, err := runOnce(exec.ShardedDest)
	if err != nil {
		return 0, err
	}
	for i := 0; i < execReps; i++ {
		d, err := runOnce(exec.ShardedDest)
		if err != nil {
			return 0, err
		}
		cached = append(cached, d.Seconds())
	}
	arcs := float64(g.NumEdges())
	res.layers["exec.atomic.edges_per_s"] = arcs / quantile(atomic, 0.5)
	res.layers["exec.sharded.edges_per_s"] = arcs / quantile(cached, 0.5)
	res.layers["exec.sharded.plan_build_s"] = max(0, first.Seconds()-quantile(cached, 0.5))
	return quantile(atomic, 0.5), nil
}

// setOverhead reports the traced run's op p50 beside the untraced half's.
func setOverhead(res *result, untracedMS, tracedMS float64) {
	res.layers["trace.untraced_op_p50_ms"] = untracedMS
	res.layers["trace.traced_op_p50_ms"] = tracedMS
	if untracedMS > 0 {
		res.layers["trace.overhead_ratio"] = tracedMS/untracedMS - 1
	}
}
