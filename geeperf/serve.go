package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dyn"
	"repro/internal/labels"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// host is the serving tier a serving workload drives: a geeserve child
// process in untraced runs, or server.New / server.NewSharded hosted in
// this process (its handler wrapped in timers) in traced runs.
type host struct {
	url      string
	pid      int
	cmd      *exec.Cmd
	stderr   sync.WaitGroup
	inproc   *http.Server
	srv      *server.Server
	handlers *handlerTimes
	stopped  sync.Once
}

// startGeeserve starts the geeserve binary on a free loopback port and
// waits until it answers /healthz.
func startGeeserve(bin string, n, k, shards int) (*host, error) {
	args := []string{"-serve", "127.0.0.1:0", "-n", strconv.Itoa(n), "-k", strconv.Itoa(k),
		"-rounds", "0", "-readers", "0"}
	if shards > 1 {
		args = append(args, "-shards", strconv.Itoa(shards))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting geeserve: %w", err)
	}
	h := &host{pid: cmd.Process.Pid, cmd: cmd}
	addr := make(chan string, 1)
	h.stderr.Add(1)
	go func() {
		defer h.stderr.Done()
		const marker = "# serving HTTP on "
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, marker); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
			fmt.Fprintln(os.Stderr, "geeserve:", line)
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			h.stop()
			return nil, fmt.Errorf("geeserve exited before serving")
		}
		h.url = "http://" + a
	case <-time.After(60 * time.Second):
		h.stop()
		return nil, fmt.Errorf("geeserve did not report its address")
	}
	if err := h.waitHealthy(); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// startInProcess hosts the serving tier in this process exactly as
// geeserve builds it, behind a handler wrapper that times each request.
func startInProcess(n, k, shards int) (*host, error) {
	y := make([]int32, n)
	for i := range y {
		y[i] = labels.Unknown
	}
	opts := dyn.Options{K: k}
	var srv *server.Server
	if shards > 1 {
		p, err := shard.NewPartition(n, shards)
		if err != nil {
			return nil, err
		}
		sh, err := shard.NewShards(p, y, opts)
		if err != nil {
			return nil, err
		}
		srv = server.NewSharded(p, sh, server.Options{})
	} else {
		d, err := dyn.New(n, y, opts)
		if err != nil {
			return nil, err
		}
		srv = server.New(d, server.Options{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ht := &handlerTimes{byRoute: map[string][]float64{}}
	h := &host{
		url:      "http://" + ln.Addr().String(),
		pid:      os.Getpid(),
		srv:      srv,
		handlers: ht,
		inproc:   &http.Server{Handler: ht.wrap(srv.Handler()), ReadHeaderTimeout: 5 * time.Second},
	}
	h.stderr.Add(1)
	go func() {
		defer h.stderr.Done()
		if err := h.inproc.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "geeperf: in-process server:", err)
		}
	}()
	if err := h.waitHealthy(); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

func startHost(cfg config, n, k, shards int) (*host, error) {
	if cfg.traced {
		return startInProcess(n, k, shards)
	}
	return startGeeserve(cfg.geeserve, n, k, shards)
}

func (h *host) waitHealthy() error {
	c := client.New(h.url, nil)
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s never became healthy: %w", h.url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop shuts the server down and waits until it has ended.
func (h *host) stop() { h.stopped.Do(h.shutdown) }

func (h *host) shutdown() {
	if h.inproc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = h.inproc.Shutdown(ctx) // a hung drain is cut by the deadline; nothing else to do
		cancel()
		h.srv.Close()
		h.stderr.Wait()
		return
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reaps either way
	done := make(chan struct{})
	go func() {
		h.stderr.Wait()
		_ = h.cmd.Wait() // its exit status after SIGTERM says nothing about the run
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = h.cmd.Process.Kill()
		<-done
	}
}

// httpClient keeps one connection per closed-loop client alive.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// handlerTimes records how long the server's handler took per route,
// while on.
type handlerTimes struct {
	on      atomic.Bool
	mu      sync.Mutex
	byRoute map[string][]float64 // seconds
}

func (ht *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ht.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start).Seconds()
		route := routeOf(r.URL.Path)
		ht.mu.Lock()
		ht.byRoute[route] = append(ht.byRoute[route], d)
		ht.mu.Unlock()
	})
}

// stats returns the mean and the summed seconds of a route's requests
// ("" pools every route).
func (ht *handlerTimes) stats(route string) (meanS, sumS float64) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	var n int
	for r, xs := range ht.byRoute {
		if route != "" && r != route {
			continue
		}
		sumS += sum(xs)
		n += len(xs)
	}
	if n > 0 {
		meanS = sumS / float64(n)
	}
	return meanS, sumS
}

func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/embedding/"):
		return "embedding"
	case path == "/v1/embeddings":
		return "embeddings"
	case path == "/v1/neighbors":
		return "neighbors"
	case path == "/v1/delta":
		return "delta"
	case path == "/v1/edges":
		return "edges"
	case path == "/v1/labels":
		return "labels"
	}
	return "other"
}

// scrape reads the server's /metrics exposition.
func scrape(hc *http.Client, base string) ([]metrics.Sample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// sumSamples sums every child of a series whose labels include match.
func sumSamples(samples []metrics.Sample, name string, match map[string]string) float64 {
	var sum float64
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for k, v := range match {
			if s.Label(k) != v {
				continue next
			}
		}
		sum += s.Value
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seedLabels labels a random labelFrac share of the vertices with their
// planted block (v mod k) over the API and returns the label vector.
func seedLabels(ctx context.Context, c *client.Client, n, k int, labelFrac float64, seed uint64) ([]int32, int64, error) {
	const chunk = 50_000
	r := xrand.NewStream(seed, 1)
	y := make([]int32, n)
	var ups []dyn.LabelUpdate
	var requests int64
	for v := range y {
		y[v] = labels.Unknown
		if r.Float64() < labelFrac {
			y[v] = int32(v % k)
			ups = append(ups, dyn.LabelUpdate{V: uint32(v), Class: y[v]})
		}
	}
	for lo := 0; lo < len(ups); lo += chunk {
		hi := min(lo+chunk, len(ups))
		requests++
		if _, err := c.UpdateLabels(ctx, ups[lo:hi]); err != nil {
			return nil, requests, fmt.Errorf("seeding labels: %w", err)
		}
	}
	return y, requests, nil
}

// blockEdge draws one edge of the planted-block stream: u uniform, v in
// u's block (v ≡ u mod k) with probability inBlock, else uniform; never
// a self loop.
func blockEdge(r *xrand.Rand, n, k int, inBlock float64) (uint32, uint32) {
	u := r.Intn(n)
	var v int
	if r.Float64() < inBlock {
		v = r.Intn(n/k)*k + u%k
	} else {
		v = r.Intn(n)
	}
	if v == u || v >= n {
		v = (u + k) % n
	}
	return uint32(u), uint32(v)
}
