//go:build !amd64

package buildtags

func arch() string { return "other" }
