package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildGeeserve compiles the serving binary the untraced workloads start.
func buildGeeserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "geeserve")
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, "repro/cmd/geeserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building geeserve: %v\n%s", err, out)
	}
	return bin
}

// runReport runs one short, small workload and parses its report line.
func runReport(t *testing.T, cfg config) report {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s (traced=%v): %v", cfg.workload, cfg.traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("stdout carries %d lines, want only the report:\n%s", len(lines), out.String())
	}
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[0]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("parsing the report: %v\n%s", err, lines[0])
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", cfg.workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, rep report, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s in %q, want %q", workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, m.Value)
		}
	}
}

func TestWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	bin := buildGeeserve(t)
	for _, name := range []string{"embed_rmat", "ingest", "ingest_sharded", "read_mix"} {
		rep := runReport(t, config{workload: name, seed: 3, window: 500 * time.Millisecond, geeserve: bin, small: true})
		checkMetrics(t, name, rep, endToEnd, true)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"embed_rmat", "ingest", "ingest_sharded", "read_mix"} {
		rep := runReport(t, config{workload: name, seed: 4, window: 500 * time.Millisecond, traced: true, outDir: t.TempDir(), small: true})
		checkMetrics(t, name, rep, perLayer, false)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if err := run(config{workload: "nope", window: time.Second}, &bytes.Buffer{}); err == nil {
		t.Fatal("an unknown workload ran")
	}
}
