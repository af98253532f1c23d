// Command geeperf is the repository's benchmark. It runs one named
// workload for a fixed window, checks the program's outputs against
// computations made apart from the program, and prints one JSON report
// as the last line of standard output (progress goes to standard error):
//
//	geeperf -workload ingest -seed 1 -seconds 10 -trace 0 -geeserve path/to/geeserve
//
// Workloads (see README.md for the make-up of their inputs):
//
//	embed_rmat      batch GEE (gee.EmbedCSR, LigraParallel and ShardedParallel)
//	ingest          one-shard geeserve at n=1e6, two closed-loop writers
//	ingest_sharded  the same write stream against geeserve -shards 2
//	read_mix        one-shard geeserve at n=1e5: reads, batched reads and
//	                approximate top-10 against scheduled inserts + replica syncs
//
// With -trace 0 the report carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a traced run instead
// (the serving tier is then hosted in-process so its handlers can be
// timed), and the run's spans are written under -out.
//
// geeperf/run.sh builds geeserve and this command from the checkout it
// runs in and passes the flags through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart is the origin of setup_s: set-up is timed from the
// process's start to the first timed operation.
var processStart = time.Now()

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	geeserve string
	outDir   string
	// small shrinks every input to test size; only the tests set it.
	small bool
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: embed_rmat, ingest, ingest_sharded, read_mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.geeserve, "geeserve", "", "geeserve binary the untraced serving workloads start")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("geeperf", "out"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.traced = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geeperf:", err)
		os.Exit(1)
	}
}

// run runs one workload and writes its report line to stdout.
func run(cfg config, stdout io.Writer) error {
	if cfg.window <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.traced && w.serving && cfg.geeserve == "" {
		return fmt.Errorf("workload %s needs -geeserve", cfg.workload)
	}
	fmt.Fprintf(os.Stderr, "# geeperf %s seed=%d window=%v traced=%v GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.window, cfg.traced, runtime.GOMAXPROCS(0))
	res, err := w.run(cfg)
	if err != nil {
		return err
	}
	for _, msg := range res.problems {
		fmt.Fprintln(os.Stderr, "geeperf: check failed:", msg)
	}
	defs := endToEnd
	vals := res.e2e
	if cfg.traced {
		defs, vals = perLayer, res.layers
		if err := res.spans.writeFile(cfg.outDir, cfg.workload, cfg.seed); err != nil {
			return err
		}
	}
	rep := report{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(out))
	return err
}

// workload is one named benchmark workload.
type workload struct {
	// serving workloads drive the HTTP tier (geeserve when untraced).
	serving bool
	run     func(cfg config) (*result, error)
}

var workloads = map[string]workload{
	"embed_rmat":     {run: runEmbed},
	"ingest":         {serving: true, run: func(cfg config) (*result, error) { return runIngest(cfg, 1) }},
	"ingest_sharded": {serving: true, run: func(cfg config) (*result, error) { return runIngest(cfg, 2) }},
	"read_mix":       {serving: true, run: runReadMix},
}
