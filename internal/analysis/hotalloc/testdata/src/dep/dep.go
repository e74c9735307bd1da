// Package dep models a same-module dependency of a hot path: its
// functions are summarized into AllocsFacts when the package is analyzed,
// and hot callers in importing packages are diagnosed from those facts.
package dep

import "fmt"

// Alloc allocates; importers calling it from hot code are flagged.
func Alloc(n int) []int {
	return make([]int, n)
}

// Clean is allocation-free; hot callers are not flagged.
func Clean(x int) int {
	return x * 2
}

// Lazy allocates, but the site is suppressed with a reason, so the
// allocation vanishes from the exported summary and hot callers stay
// clean — the amortized-lazy-init protocol.
func Lazy(m map[int]int) map[int]int {
	if m == nil {
		m = make(map[int]int) //detlint:ignore hotalloc one-time lazy init, amortized to 0 allocs/run
	}
	return m
}

// Check calls fmt only on an error path whose call is suppressed with a
// reason, so, like a suppressed site, the call leaves the summary and hot
// callers stay clean.
func Check(n int) error {
	if n < 0 {
		return fmt.Errorf("dep: negative %d", n) //detlint:ignore hotalloc error path, never taken in steady state
	}
	return nil
}
