//go:build race

package ckpt

// The race detector's instrumentation allocates where a plain build does
// not — it turns off the compiler's fusion of append(s, make(...)...),
// which slices.Grow relies on — so byte-exact allocation bounds hold only
// without it.
func init() { raceBuild = true }
