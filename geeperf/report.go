package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports. Each has one
// definition; the workload decides which operation it times (README.md
// has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"alt_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"gen.rmat_s", "s"},
	{"graph.build_csr_s", "s"},
	{"exec.atomic.edges_per_s", "1/s"},
	{"exec.sharded.edges_per_s", "1/s"},
	{"exec.sharded.plan_build_s", "s"},
	{"gee.overhead_s", "s"},
	{"dyn.apply_s", "s"},
	{"dyn.publish_p50_s", "s"},
	{"dyn.publish_p99_s", "s"},
	{"dyn.publish_alloc_bytes", "B"},
	{"dyn.dirty_rows_per_publish", "count"},
	{"dyn.delta_s", "s"},
	{"dyn.heap_bytes", "B"},
	{"coalescer.requests_per_fold", "count"},
	{"coalescer.queue_wait_s", "s"},
	{"coalescer.ack_wait_s", "s"},
	{"server.write_stages_s", "s"},
	{"client.write_total_s", "s"},
	{"server.embedding_s", "s"},
	{"server.embeddings_s", "s"},
	{"server.neighbors_s", "s"},
	{"server.delta_s", "s"},
	{"server.edges_s", "s"},
	{"client.transport_s", "s"},
	{"wire.delta_bytes_per_row", "B"},
	{"wire.snapshot_encode_s", "s"},
	{"wire.delta_decode_s", "s"},
	{"cluster.ivf_search_s", "s"},
	{"cluster.topk_s", "s"},
	{"cluster.ivf_build_s", "s"},
	{"cluster.ivf_recall_at_10", "ratio"},
	{"replica.sync_s", "s"},
	{"replica.rows_per_sync", "count"},
	{"replica.resyncs", "count"},
	{"replica.bytes_per_sync", "B"},
	{"shard.split_s", "s"},
	{"shard.cut_edge_fraction", "ratio"},
	{"shard.folds_per_request", "count"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	spans             *spanLog
	problems          []string // failed correctness checks
}

func newResult(traced bool) *result {
	r := &result{e2e: map[string]float64{}, layers: map[string]float64{}}
	if traced {
		r.spans = &spanLog{t0: time.Now()}
	}
	return r
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// event is something a run counts towards a rate: n ops done at at.
type event struct {
	at time.Time
	n  float64
}

// sliceRates splits the window [start, start+d) into slices of the
// given length (one slice if d is shorter) and returns the events' rate
// per second in each whole slice. A rate metric is the median of these,
// so a stall in a few slices moves it little.
func sliceRates(start time.Time, d, slice time.Duration, events []event) []float64 {
	slice = min(slice, d)
	counts := make([]float64, int(d/slice))
	for _, e := range events {
		if i := int(e.at.Sub(start) / slice); i >= 0 && i < len(counts) {
			counts[i] += e.n
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return counts
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMiB reads a process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// span is one timed call the benchmark made into a layer. The spans of
// one operation (a write and its read-back, a reader round, a tick, one
// replayed request) share a trace id.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
// A nil *spanLog records nothing, so untraced code paths stay identical.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

// record files one finished span; a zero traceID starts a new trace.
func (l *spanLog) record(traceID uint64, name string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	if traceID == 0 {
		traceID = l.next
	}
	l.spans = append(l.spans, span{
		Trace: traceID, ID: l.next, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(), DurUS: dur.Microseconds(),
	})
}

// newTrace mints a trace id for one operation.
func (l *spanLog) newTrace() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// timed runs f, records it as a span and returns its duration.
func (l *spanLog) timed(traceID uint64, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	l.record(traceID, name, start, d)
	return d, err
}

// writeFile dumps the spans as JSON lines to dir/spans-<workload>-<seed>.jsonl.
func (l *spanLog) writeFile(dir, workload string, seed uint64) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	n := len(l.spans)
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "# wrote %d spans to %s\n", n, path)
	return nil
}
