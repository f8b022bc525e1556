// Package buildtags is the loader's build-constraint fixture: arch()
// has one declaration per platform, and ignored.go never builds.
package buildtags

// Arch names the platform file that was built.
func Arch() string { return arch() }
