//go:build !amd64

package nnmf

// hostTiles returns goTiles: only amd64 has vector routines.
func hostTiles() tileOps { return goTiles }
