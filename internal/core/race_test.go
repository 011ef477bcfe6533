//go:build race

package core

// The race detector's instrumentation allocates where a plain build does
// not, so allocation bounds hold only without it.
func init() { raceBuild = true }
