// Package a exercises every allocation form hotalloc flags inside
// annotated hot functions, plus the annotation-hygiene diagnostics.
package a

import "dep"

type point struct{ X, Y int }

// Direct demonstrates the direct allocation sites.
//
//detlint:hotpath witness=BenchmarkDirect
func Direct(n int) {
	_ = make([]int, n)    // want "make in hotpath function Direct"
	_ = new(point)        // want "new in hotpath function Direct"
	_ = &point{1, 2}      // want "escaping composite literal"
	_ = []int{1, 2, n}    // want "slice literal"
	_ = map[int]int{1: n} // want "map literal"
}

// Grow demonstrates the append policy: only the self-append reuse idiom
// is allocation-clean.
//
//detlint:hotpath witness=BenchmarkGrow
func Grow(dst, src []int) []int {
	out := append(dst, src...) // want "append outside the dst = append"
	dst = append(dst, 1)
	dst = append(dst[:0], src...)
	_ = dst
	return out
}

// Box demonstrates interface boxing at returns, assignments, and call
// arguments; pointers and constants do not box.
//
//detlint:hotpath witness=BenchmarkBox
func Box(v int, p *point) any {
	var x any
	x = v // want "interface boxing of int value"
	sink(x)
	sink(v)       // want "interface boxing of int value"
	sink(42)      // constants are materialized statically
	sink(p)       // pointers fit the interface word
	var y any = v // want "interface boxing of int value"
	_ = y
	return v // want "interface boxing of int value"
}

func sink(any) {}

// Strings demonstrates string conversions and concatenation.
//
//detlint:hotpath witness=BenchmarkStrings
func Strings(b []byte, s string) string {
	x := string(b) // want "to-string conversion"
	y := []byte(s) // want "string-to-"
	_ = y
	return x + s // want "string concatenation"
}

// Capture demonstrates closure captures and goroutine spawns.
//
//detlint:hotpath witness=BenchmarkCapture
func Capture(n int) func() int {
	f := func() int { return n } // want "closure capturing n"
	go cold(1)                   // want "go statement"
	return f
}

// Chain is a hot root whose helper allocates: the helper is flagged as a
// transitive member of the cone.
//
//detlint:hotpath witness=BenchmarkChain
func Chain(n int) int {
	return helper(n)
}

func helper(n int) int {
	buf := make([]int, n) // want "make in helper \\(hot via Chain\\)"
	return len(buf)
}

// Remote demonstrates fact-based cross-package checking: dep.Alloc's
// summary travels through the fact store, dep.Clean has none, and
// dep.Lazy's suppressed site and dep.Check's suppressed call were removed
// before export.
//
//detlint:hotpath witness=BenchmarkRemote
func Remote(n int, m map[int]int) int {
	xs := dep.Alloc(n) // want "call to dep.Alloc may allocate"
	_ = dep.Lazy(m)
	_ = dep.Check(n)
	return dep.Clean(len(xs))
}

// NoWitness is annotated without naming a runtime witness.
//
//detlint:hotpath // want "names no runtime witness"
func NoWitness(x int) int {
	return x + 1
}

// cold is reached from Capture's go statement, so it joins the hot cone;
// it stays allocation-free. notHot is never called from hot code, so its
// allocations are not diagnosed.
func cold(n int) int { return n * 2 }

func notHot(n int) []int {
	out := append([]int{}, n)
	return out
}

// CrossSuppress shows the suppression interplay: the ignore names sinkerr,
// so the per-analyzer, per-line protocol leaves the hotalloc finding alone.
//
//detlint:hotpath witness=BenchmarkCrossSuppress
func CrossSuppress(n int) []int {
	return make([]int, n) //detlint:ignore sinkerr not an error discard // want "make in hotpath function CrossSuppress"
}
