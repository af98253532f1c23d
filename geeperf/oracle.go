package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// The benchmark's own oracles. They share no code with exec, gee or dyn:
// a plain loop over the edge list recomputes Z, and a plain scan answers
// nearest-neighbour queries.

// tolerance is the agreement the checks demand: |got-want| <= tol·max(1, |want|).
const tolerance = 1e-9

// oracleEmbed recomputes one-hot GEE with plain loops. y holds each
// vertex's class in [0, k) or a negative value for unlabelled; edges is
// the edge multiset, each edge contributing w/n_c to row u in column
// c = y[v], and w/n_c to row v in column c = y[u]. Z is row-major n×k.
func oracleEmbed(n, k int, y []int32, edges []graph.Edge) []float64 {
	counts := make([]float64, k)
	for _, c := range y {
		if c >= 0 {
			counts[c]++
		}
	}
	z := make([]float64, n*k)
	for _, e := range edges {
		w := float64(e.W)
		if c := y[e.V]; c >= 0 {
			z[int(e.U)*k+int(c)] += w / counts[c]
		}
		if c := y[e.U]; c >= 0 {
			z[int(e.V)*k+int(c)] += w / counts[c]
		}
	}
	return z
}

// liveEdges returns the multiset inserts minus deletes, or an error when
// a delete names an edge that is not live.
func liveEdges(inserts, deletes []graph.Edge) ([]graph.Edge, error) {
	live := make(map[graph.Edge]int, len(inserts))
	for _, e := range inserts {
		live[e]++
	}
	for _, e := range deletes {
		if live[e] == 0 {
			return nil, fmt.Errorf("delete of edge %v that is not live", e)
		}
		live[e]--
	}
	out := make([]graph.Edge, 0, len(live))
	for e, c := range live {
		for ; c > 0; c-- {
			out = append(out, e)
		}
	}
	return out, nil
}

// classMass returns, for each class c, the summed weight of edge ends
// whose other end is labelled c — what n_c·Σ_i Z[i][c] must equal.
func classMass(k int, y []int32, edges []graph.Edge) []float64 {
	mass := make([]float64, k)
	for _, e := range edges {
		if c := y[e.V]; c >= 0 {
			mass[c] += float64(e.W)
		}
		if c := y[e.U]; c >= 0 {
			mass[c] += float64(e.W)
		}
	}
	return mass
}

// closeTo reports whether got agrees with want within tolerance.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= tolerance*math.Max(1, math.Abs(want))
}

// compareRows checks got against want (both row-major, same shape) and
// describes the first disagreement.
func compareRows(got, want []float64, k int) error {
	if len(got) != len(want) {
		return fmt.Errorf("shape mismatch: %d cells vs %d", len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i]) {
			return fmt.Errorf("row %d col %d: got %.17g, oracle %.17g", i/k, i%k, got[i], want[i])
		}
	}
	return nil
}

// bruteTopK returns the ids and squared-L2 distances of the topk rows of
// z (row-major, width k) nearest to row q, excluding q itself, ascending
// by distance with ties by id.
func bruteTopK(z []float64, k, q, topk int) ([]int, []float64) {
	n := len(z) / k
	type cand struct {
		id int
		d  float64
	}
	all := make([]cand, 0, n)
	qrow := z[q*k : q*k+k]
	for i := 0; i < n; i++ {
		if i == q {
			continue
		}
		all = append(all, cand{i, sqDist(z[i*k:i*k+k], qrow)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if len(all) > topk {
		all = all[:topk]
	}
	ids := make([]int, len(all))
	ds := make([]float64, len(all))
	for i, c := range all {
		ids[i], ds[i] = c.id, c.d
	}
	return ids, ds
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

// recallAt returns the share of the exact answer's topk slots an
// approximate answer fills: an approximate neighbour counts when its true
// distance is no larger than the exact k-th distance, so rows tied with
// the k-th are interchangeable. Duplicates and q itself never count.
func recallAt(z []float64, k, q, topk int, approx []int) float64 {
	_, exact := bruteTopK(z, k, q, topk)
	if len(exact) == 0 {
		return 1
	}
	kth := exact[len(exact)-1]
	seen := make(map[int]bool, len(approx))
	hits := 0
	for _, id := range approx {
		if id == q || seen[id] || id < 0 || id*k >= len(z) {
			continue
		}
		seen[id] = true
		if d := sqDist(z[id*k:id*k+k], z[q*k:q*k+k]); d <= kth*(1+tolerance)+1e-300 {
			hits++
		}
	}
	if hits > len(exact) {
		hits = len(exact)
	}
	return float64(hits) / float64(len(exact))
}
