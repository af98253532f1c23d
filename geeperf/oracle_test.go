package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The hand-computed graph: n=4, K=2, labels [0 0 1 -], so n_0=2, n_1=1.
var (
	handY     = []int32{0, 0, 1, -1}
	handEdges = []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 0.5}}
	// (0,1,1):   Z[0][0] += 1/2,  Z[1][0] += 1/2
	// (1,2,2):   Z[1][1] += 2/1,  Z[2][0] += 2/2
	// (2,3,1):   Z[3][1] += 1/1   (vertex 3 is unlabelled: no update of row 2)
	// (0,3,0.5): Z[3][0] += 0.5/2 (no update of row 0)
	handZ = []float64{
		0.5, 0,
		0.5, 2,
		1, 0,
		0.25, 1,
	}
)

func TestOracleEmbedHandGraph(t *testing.T) {
	got := oracleEmbed(4, 2, handY, handEdges)
	if err := compareRows(got, handZ, 2); err != nil {
		t.Fatal(err)
	}
	// n_c·Σ_i Z[i][c] equals the weight of edge ends landing in class c.
	mass := classMass(2, handY, handEdges)
	if want := []float64{4.5, 3}; !slices.Equal(mass, want) {
		t.Fatalf("class mass %v, want %v", mass, want)
	}
}

func TestCompareRowsReportsDisagreement(t *testing.T) {
	bad := slices.Clone(handZ)
	bad[3] += 1e-6
	if err := compareRows(bad, handZ, 2); err == nil {
		t.Fatal("a 1e-6 error passed the 1e-9 check")
	}
	ok := slices.Clone(handZ)
	ok[3] += 1e-12
	if err := compareRows(ok, handZ, 2); err != nil {
		t.Fatalf("a 1e-12 error failed the check: %v", err)
	}
}

func TestLiveEdges(t *testing.T) {
	a, b := graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 1}
	live, err := liveEdges([]graph.Edge{a, a, b}, []graph.Edge{a})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(live, func(x, y graph.Edge) int { return int(x.U) - int(y.U) })
	if want := []graph.Edge{a, b}; !slices.Equal(live, want) {
		t.Fatalf("live %v, want %v", live, want)
	}
	if _, err := liveEdges([]graph.Edge{a}, []graph.Edge{b}); err == nil {
		t.Fatal("deleting an edge that is not live passed")
	}
}

func TestBruteTopKHandGraph(t *testing.T) {
	// Squared distances from row 0 (0.5,0): row 1 → 4, row 2 → 0.25,
	// row 3 → 0.0625+1.
	ids, ds := bruteTopK(handZ, 2, 0, 2)
	if !slices.Equal(ids, []int{2, 3}) || !slices.Equal(ds, []float64{0.25, 1.0625}) {
		t.Fatalf("top-2 of row 0: %v %v", ids, ds)
	}
	for _, tc := range []struct {
		approx []int
		want   float64
	}{
		{[]int{3, 2}, 1},
		{[]int{2, 1}, 0.5},
		{[]int{0, 2}, 0.5}, // the query itself never counts
		{[]int{2, 2}, 0.5}, // nor does a repeat
	} {
		if got := recallAt(handZ, 2, 0, 2, tc.approx); got != tc.want {
			t.Errorf("recall of %v: %v, want %v", tc.approx, got, tc.want)
		}
	}
}

func TestRecallCountsTiesAsHits(t *testing.T) {
	// Rows 1, 2 and 3 all lie at distance 1 from row 0; any of them is a
	// correct top-1 answer.
	z := []float64{0, 0, 1, 0, 0, 1, -1, 0}
	for _, id := range []int{1, 2, 3} {
		if got := recallAt(z, 2, 0, 1, []int{id}); got != 1 {
			t.Errorf("tied row %d: recall %v", id, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile %v: %v, want %v", q, got, want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2, 5}) {
		t.Error("quantile reordered its input")
	}
}
