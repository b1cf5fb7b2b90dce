package main

import (
	"errors"
	"strings"
	"testing"

	"kspdg/internal/graph"
)

// diamond builds 0-1-3, 0-2-3 (two tied length-2 paths) and a direct 0-3
// edge of weight 5, plus a 1-2 rung and a dead-end vertex 4 hanging off 3,
// all undirected.
func diamond(t *testing.T) (*roadGraph, []float64) {
	t.Helper()
	b := graph.NewBuilder(5, false)
	for _, e := range []struct {
		u, v graph.VertexID
		w    float64
	}{{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}, {0, 3, 5}, {1, 2, 1}, {3, 4, 1}} {
		if _, err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	return newRoadGraph(g), initialWeights(g)
}

func TestYenLengthsWithTies(t *testing.T) {
	rg, w := diamond(t)
	got := rg.yen(0, 3, 4, w)
	want := []float64{2, 2, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("yen = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("yen = %v, want %v", got, want)
		}
	}
	// All five simple paths, then nothing more.
	if all := rg.yen(0, 3, 10, w); len(all) != 5 || all[4] != 5 {
		t.Fatalf("yen(k=10) = %v, want five paths ending at 5", all)
	}
}

func TestCheckAnswer(t *testing.T) {
	rg, w := diamond(t)
	exact := rg.yen(0, 3, 2, w)
	cases := []struct {
		name string
		a    answer
		want string // "" = accepted
	}{
		{"exact, tie in either order", answer{paths: [][]int32{{0, 2, 3}, {0, 1, 3}}, dists: []float64{2, 2}, converged: true}, ""},
		{"bounded within gap", answer{paths: [][]int32{{0, 1, 3}, {0, 1, 2, 3}}, dists: []float64{2, 3}, converged: true, gap: 1}, ""},
		{"bounded beyond gap", answer{paths: [][]int32{{0, 1, 3}, {0, 3}}, dists: []float64{2, 5}, converged: true, gap: 1}, "outside"},
		{"exact but too long", answer{paths: [][]int32{{0, 1, 3}, {0, 1, 2, 3}}, dists: []float64{2, 3}, converged: true}, "oracle's is"},
		{"wrong dist", answer{paths: [][]int32{{0, 1, 3}, {0, 2, 3}}, dists: []float64{2, 2.5}, converged: true}, "edges sum"},
		{"missing edge", answer{paths: [][]int32{{0, 1, 3}, {0, 4, 3}}, dists: []float64{2, 2}, converged: true}, "missing edge"},
		{"not simple", answer{paths: [][]int32{{0, 1, 3}, {0, 2, 1, 0, 3}}, dists: []float64{2, 8}, converged: true}, "not simple"},
		{"wrong endpoints", answer{paths: [][]int32{{1, 3}}, dists: []float64{1}, converged: true}, "does not run"},
		{"duplicate", answer{paths: [][]int32{{0, 1, 3}, {0, 1, 3}}, dists: []float64{2, 2}, converged: true}, "duplicates"},
		{"descending", answer{paths: [][]int32{{0, 1, 2, 3}, {0, 1, 3}}, dists: []float64{3, 2}, converged: true, gap: 1}, "shorter"},
		{"too few", answer{paths: [][]int32{{0, 1, 3}}, dists: []float64{2}, converged: true}, "oracle finds"},
	}
	for _, c := range cases {
		err := rg.checkAnswer(0, 3, 2, w, c.a, exact)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if err := rg.checkAnswer(0, 3, 2, w, answer{converged: false}, exact); !errors.Is(err, errNonConverged) {
		t.Errorf("non-converged answer: got %v, want errNonConverged", err)
	}
}
