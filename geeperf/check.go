package main

import (
	"context"
	"fmt"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/server/client"
)

// oracleState rebuilds labels and Z from the set-up labels and the
// acked request stream (in ack order), with the benchmark's own loops.
func oracleState(n, k int, y0 []int32, stream []dyn.Batch) ([]int32, []float64, error) {
	y := append([]int32(nil), y0...)
	var ins, del []graph.Edge
	for _, b := range stream {
		del = append(del, b.Delete...)
		ins = append(ins, b.Insert...)
		for _, u := range b.Labels {
			y[u.V] = u.Class
		}
	}
	live, err := liveEdges(ins, del)
	if err != nil {
		return nil, nil, err
	}
	return y, oracleEmbed(n, k, y, live), nil
}

// fetchSnapshot reads the whole published state as float64 rows over
// the JSON wire: /v1/snapshot, or every shard's section of it.
func fetchSnapshot(ctx context.Context, c *client.Client, n, k, shards int) ([]int32, []float64, error) {
	y := make([]int32, n)
	z := make([]float64, n*k)
	sections := 1
	if shards > 1 {
		meta, err := c.Partition(ctx)
		if err != nil {
			return nil, nil, err
		}
		sections = meta.Shards
	}
	covered := 0
	for s := 0; s < sections; s++ {
		snap, err := c.SnapshotShard(ctx, s)
		if err != nil {
			return nil, nil, fmt.Errorf("fetching snapshot section %d: %w", s, err)
		}
		lo := int(snap.Lo)
		if len(snap.Y) != len(snap.Z) || lo+len(snap.Z) > n {
			return nil, nil, fmt.Errorf("snapshot section %d: %d labels, %d rows at %d", s, len(snap.Y), len(snap.Z), lo)
		}
		copy(y[lo:], snap.Y)
		for i, row := range snap.Z {
			if len(row) != k {
				return nil, nil, fmt.Errorf("snapshot row %d has %d columns", lo+i, len(row))
			}
			copy(z[(lo+i)*k:], row)
		}
		covered += len(snap.Z)
	}
	if covered != n {
		return nil, nil, fmt.Errorf("snapshot covers %d of %d rows", covered, n)
	}
	return y, z, nil
}

// checkFinal compares the server's final state with the oracle rebuilt
// from the set-up labels and the acked stream, and returns the fetched Z.
func checkFinal(ctx context.Context, res *result, c *client.Client, k, shards int, y0 []int32, stream []dyn.Batch) ([]float64, error) {
	n := len(y0)
	wantY, wantZ, err := oracleState(n, k, y0, stream)
	if err != nil {
		res.problem("acked stream: %v", err)
		return nil, nil
	}
	gotY, gotZ, err := fetchSnapshot(ctx, c, n, k, shards)
	if err != nil {
		return nil, err
	}
	for v := range wantY {
		if gotY[v] != wantY[v] {
			res.problem("label of vertex %d: server %d, oracle %d", v, gotY[v], wantY[v])
			break
		}
	}
	if err := compareRows(gotZ, wantZ, k); err != nil {
		res.problem("final snapshot vs oracle: %v", err)
	}
	return gotZ, nil
}
