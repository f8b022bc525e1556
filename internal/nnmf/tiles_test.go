package nnmf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostKernels returns every tile routine set this host can run: the Go
// reference and, on an amd64 CPU with AVX, the vector set.
func hostKernels() []tileOps {
	if host := hostTiles(); host.name != goTiles.name {
		return []tileOps{goTiles, host}
	}
	return []tileOps{goTiles}
}

// forEachKernel runs f as one subtest per host kernel, with every CSR
// fit f makes running that kernel's routines.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, ops := range hostKernels() {
		t.Run(ops.name, func(t *testing.T) {
			prev := tiles
			tiles = ops
			t.Cleanup(func() { tiles = prev })
			f(t)
		})
	}
}

// defaultNaN is the NaN x86 arithmetic produces. Every NaN the kernel
// can meet is this one: its inputs are finite and its random factors
// too, so a NaN only arises from an invalid operation and then
// propagates unchanged, whichever operand order a routine uses.
var defaultNaN = math.Float64frombits(0xFFF8000000000000)

// tileDraw returns a value source for one routine case: normal numbers
// near 1 or of any exponent, mixed at the case's rate with +0,
// subnormals, +Inf and the default NaN.
func tileDraw(rng *rand.Rand) func() float64 {
	special := []float64{0, 0.02, 0.2}[rng.Intn(3)]
	wide := rng.Intn(2) == 0
	return func() float64 {
		if rng.Float64() < special {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))
			case 2:
				return math.Inf(1)
			default:
				return defaultNaN
			}
		}
		if wide {
			return math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022)
		}
		return math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
	}
}

func drawTiles(n int, draw func() float64) []tile {
	ts := make([]tile, n)
	for i := range ts {
		for l := range ts[i] {
			ts[i][l] = draw()
		}
	}
	return ts
}

// sameTiles reports the first tile entry whose bits differ; "" means
// identical.
func sameTiles(got, want []tile) string {
	for i := range want {
		for l := range want[i] {
			if math.Float64bits(got[i][l]) != math.Float64bits(want[i][l]) {
				return fmt.Sprintf("tile %d lane %d: %v vs %v", i, l, got[i][l], want[i][l])
			}
		}
	}
	return ""
}

// TestTileRoutinesMatchGo holds each routine of the host's vector set
// to its Go twin, bit for bit, at nt = 1–3 tiles per row: the H update
// with its diagonal HHᵀ block, the W update and addRow, on random
// tiles with +0, subnormals, +Inf and the default NaN among them.
func TestTileRoutinesMatchGo(t *testing.T) {
	vec := hostTiles()
	if vec.name == goTiles.name {
		t.Skip("this host runs only the Go routines")
	}
	rng := rand.New(rand.NewSource(20261019))
	for c := 0; c < 3000; c++ {
		nt := 1 + c%3
		draw := tileDraw(rng)
		cols := 1 + rng.Intn(24)
		T := rng.Intn(nt)
		eps := 1e-12
		if rng.Intn(4) == 0 {
			eps = draw()
		}
		label := fmt.Sprintf("case %d (nt=%d T=%d cols=%d)", c, nt, T, cols)

		old, wtA, cw := drawTiles(cols*nt, draw), drawTiles(cols*nt, draw), drawTiles(4*nt, draw)
		next := drawTiles(cols*nt, draw)
		gotNext := append([]tile(nil), next...)
		var gotB, wantB [16]float64
		goTiles.updateH(next, old, wtA, cw, T, eps, &wantB)
		vec.updateH(gotNext, old, wtA, cw, T, eps, &gotB)
		if diff := sameTiles(gotNext, next); diff != "" {
			t.Fatalf("%s: updateH next differs: %s", label, diff)
		}
		for i, v := range wantB {
			if math.Float64bits(gotB[i]) != math.Float64bits(v) {
				t.Fatalf("%s: updateH HHᵀ block entry %d: %v vs %v", label, i, gotB[i], v)
			}
		}

		nz := rng.Intn(cols + 1)
		idx := make([]int, nz)
		vals := make([]float64, nz)
		for p := range idx {
			idx[p], vals[p] = rng.Intn(cols), draw()
		}
		ht, b := drawTiles(cols*nt, draw), drawTiles(1, draw)
		w := drawTiles(1, draw)
		gotW := append([]tile(nil), w...)
		goTiles.updateW(&w[0], &b[0], idx, vals, ht, nt, T, eps)
		vec.updateW(&gotW[0], &b[0], idx, vals, ht, nt, T, eps)
		if diff := sameTiles(gotW, w); diff != "" {
			t.Fatalf("%s: updateW differs: %s", label, diff)
		}

		wi, dot := drawTiles(nt, draw), draw()
		gotWtA := append([]tile(nil), wtA...)
		want := goTiles.addRow(dot, wi, idx, vals, ht, wtA)
		got := vec.addRow(dot, wi, idx, vals, ht, gotWtA)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: addRow dot %v vs %v", label, got, want)
		}
		if diff := sameTiles(gotWtA, wtA); diff != "" {
			t.Fatalf("%s: addRow WᵀA differs: %s", label, diff)
		}
	}
}
