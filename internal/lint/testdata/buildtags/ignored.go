//go:build ignore

package buildtags

func arch() int { return 0 }
