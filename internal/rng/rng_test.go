package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d identical draws", same)
	}
}

func TestDeriveStable(t *testing.T) {
	a := New(7).Derive("module", "B3").Derive("row", 4711)
	b := New(7).Derive("module", "B3").Derive("row", 4711)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with identical labels diverged at draw %d", i)
		}
	}
}

func TestDeriveLabelSeparation(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	a := New(7).Derive("ab", "c")
	b := New(7).Derive("a", "bc")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("label concatenation collision: Derive(ab,c) == Derive(a,bc)")
	}
}

func TestDeriveDependsOnParentState(t *testing.T) {
	// A child is keyed on the parent's current state: deriving does not
	// advance the parent, but a draw from the parent changes its children.
	p1 := New(9)
	before := p1.Derive("x")
	again := p1.Derive("x")
	if before.Uint64() != again.Uint64() {
		t.Fatal("deriving advanced the parent: two derivations in a row differ")
	}
	p2 := New(9)
	p2.Uint64() // consume one draw
	after := p2.Derive("x")
	if New(9).Derive("x").Uint64() == after.Uint64() {
		t.Error("child derived after a parent draw equals the one derived before it")
	}
	if p1.Uint64() != New(9).Uint64() {
		t.Error("Derive changed the parent's draw sequence")
	}
}

// deriveVectors pin Derive's hash bytes: the first two draws of each child
// were recorded with the hash/fnv implementation Derive replaced, so every
// stream in the simulation, and with them the campaign goldens, stays put.
var deriveVectors = []struct {
	seed       uint64
	labels     []any
	draw, next uint64
}{
	{2022, nil, 0x2259615c8528f2fe, 0xed641a869c3ab42c},
	{2022, []any{"module", "B3"}, 0x3f74e914935ec8b1, 0x9625571d33a9cf6f},
	{2022, []any{"row", 0, 4711}, 0x018f2928fc44ba75, 0x4ae99915994252c8},
	{2022, []any{"trcdcol", 0, 4711, 17}, 0x39a2705e89aef446, 0xaff345564b5930dc},
	{2022, []any{"trcditer", 3, 32767, 127, 9}, 0xe20d9e98654737fb, 0x7b6858c655b9ab3e},
	{7, []any{"hnoise", 15, int64(1) << 40, -1}, 0xb77f2bf793f6eb1f, 0x6af593feeac242a4},
	{7, []any{""}, 0x96e2bd70c1f6930b, 0x180ec3dd366cb324},
	{7, []any{"ab", "c"}, 0x8a2f5c0ab8f77d78, 0x210fbc13e8af19a0},
	{7, []any{"a", "bc"}, 0xbfd3424a1da9a211, 0x56723df94b5fe714},
	{0, []any{int64(-5), uint64(1) << 63, 2.5}, 0xdb0dcde3dec7c910, 0x8ac2ebaa2f45121d},
	{0, []any{int32(7), true, labelText(300)}, 0xc33e610ac5c1a420, 0xeed1a00a193c39a0},
	{1, []any{"spice-mc", "1.70"}, 0x70e72386eb179bba, 0x49b7299925cd80ab},
}

// labelText is a named integer type: Derive hashes it by its fmt text.
type labelText int

func TestDeriveGoldenVectors(t *testing.T) {
	for _, v := range deriveVectors {
		s := New(v.seed).Derive(v.labels...)
		if got, next := s.Uint64(), s.Uint64(); got != v.draw || next != v.next {
			t.Errorf("New(%d).Derive(%#v) draws %#x, %#x; want %#x, %#x", v.seed, v.labels, got, next, v.draw, v.next)
		}
	}
	if got := New(2022).Derive("module", "B3").Derive("row", 0, 4711).Uint64(); got != 0x3b7298b93498fee4 {
		t.Errorf("chained derivation draws %#x, want 0x3b7298b93498fee4", got)
	}
}

func TestDeriveIntsMatchesDerive(t *testing.T) {
	for _, v := range deriveVectors {
		label, ok := firstString(v.labels)
		if !ok {
			continue
		}
		ids, ok := ints(v.labels[1:])
		if !ok {
			continue
		}
		s := New(v.seed).DeriveInts(label, ids...)
		if got := s.Uint64(); got != v.draw {
			t.Errorf("New(%d).DeriveInts(%q, %v) draws %#x, want %#x", v.seed, label, ids, got, v.draw)
		}
	}
	f := func(seed uint64, label string, a, b int) bool {
		want := New(seed).Derive(label, a, b).Uint64()
		got := New(seed).DeriveInts(label, a, b)
		return got.Uint64() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func firstString(labels []any) (string, bool) {
	if len(labels) == 0 {
		return "", false
	}
	s, ok := labels[0].(string)
	return s, ok
}

func ints(labels []any) ([]int, bool) {
	out := make([]int, 0, len(labels))
	for _, l := range labels {
		v, ok := l.(int)
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

func TestDeriveIntsAllocsFree(t *testing.T) {
	s := New(1)
	row := 4711
	var sink uint64
	if a := testing.AllocsPerRun(100, func() {
		c := s.DeriveInts("trcdcol", 0, row, 17)
		sink += c.Uint64()
	}); a != 0 {
		t.Errorf("DeriveInts allocates %v times per call, want 0", a)
	}
	_ = sink
}

// TestPrefixMatchesDeriveInts checks that every split of the ids between
// Prefix and Ints derives the stream DeriveInts derives, on the derive
// vectors and on random labels and ids.
func TestPrefixMatchesDeriveInts(t *testing.T) {
	splitsMatch := func(seed uint64, label string, ids []int) bool {
		s := New(seed)
		want := s.DeriveInts(label, ids...)
		for k := 0; k <= len(ids); k++ {
			got := s.Prefix(label, ids[:k]...).Ints(ids[k:]...)
			if got != want {
				t.Logf("seed %d label %q ids %v: split at %d derives another stream", seed, label, ids, k)
				return false
			}
		}
		return true
	}
	for _, v := range deriveVectors {
		label, ok := firstString(v.labels)
		if !ok {
			continue
		}
		ids, ok := ints(v.labels[1:])
		if !ok {
			continue
		}
		if !splitsMatch(v.seed, label, ids) {
			t.Errorf("New(%d): a Prefix/Ints split of (%q, %v) differs from DeriveInts", v.seed, label, ids)
		}
		if s := New(v.seed).Prefix(label, ids...).Ints(); s.Uint64() != v.draw {
			t.Errorf("New(%d).Prefix(%q, %v).Ints() misses the vector's draw", v.seed, label, ids)
		}
	}
	if err := quick.Check(splitsMatch, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixIntsAllocsFree(t *testing.T) {
	p := New(1).Prefix("trcditer", 0, 4711)
	var sink uint64
	if a := testing.AllocsPerRun(100, func() {
		c := p.Ints(17, 3)
		sink += c.Uint64()
	}); a != 0 {
		t.Errorf("Prefix.Ints allocates %v times per call, want 0", a)
	}
	_ = sink
}

// perm returns a fresh permutation of [0, n) drawn by PermInto.
func perm(s *Stream, n int) []int32 {
	p := make([]int32, n)
	s.PermInto(p)
	return p
}

// TestIntnPermGoldenVectors pins Intn's bounded sampling and PermInto on draws
// recorded from the portable 32-bit-limb 128-bit product.
func TestIntnPermGoldenVectors(t *testing.T) {
	s := New(2022)
	for _, v := range []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {6, 3}, {7, 5}, {10, 8}, {512, 421}, {1000, 540},
		{65536, 63413}, {1048576, 475822}, {1073741827, 848819256}, {2147483647, 1289587652},
	} {
		if got := s.Intn(v.n); got != v.want {
			t.Errorf("Intn(%d) = %d, want %d", v.n, got, v.want)
		}
	}
	if got, want := perm(New(7), 12), []int32{5, 2, 11, 6, 10, 4, 8, 9, 3, 7, 1, 0}; !slices.Equal(got, want) {
		t.Errorf("New(7).PermInto(12) = %v, want %v", got, want)
	}
	h := uint64(14695981039346656037) // FNV-1a over the permutation's values
	for _, v := range perm(New(7), 65536) {
		h = (h ^ uint64(v)) * 1099511628211
	}
	if h != 0xa6aef74467e837d5 {
		t.Errorf("New(7).PermInto(65536) hashes to %#x, want 0xa6aef74467e837d5", h)
	}
}

func TestMaxAbsNormBoundsThePolarMethod(t *testing.T) {
	// Evaluate the polar formula on the lattice of the smallest accepted
	// (u, v): u and v are multiples of 2^-52, so q = 2^-104 at u = 2^-52,
	// v = 0 gives the largest magnitude the method can return.
	polar := func(u, v float64) float64 {
		q := u*u + v*v
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
	ulp := math.Ldexp(1, -52)
	if q := ulp * ulp; q != math.Ldexp(1, -104) {
		t.Fatalf("q = %g, want 2^-104", q)
	}
	peak := math.Abs(polar(ulp, 0))
	if want := math.Sqrt(208 * math.Ln2); math.Abs(peak-want) > 1e-12 {
		t.Errorf("|x| at q = 2^-104 is %.15g, want sqrt(208 ln 2) = %.15g", peak, want)
	}
	if peak > MaxAbsNorm || MaxAbsNorm-peak > 0.01 {
		t.Errorf("MaxAbsNorm = %v does not tightly bound the peak %v", MaxAbsNorm, peak)
	}
	for i := -4; i <= 4; i++ {
		for j := -4; j <= 4; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if x := polar(float64(i)*ulp, float64(j)*ulp); math.Abs(x) > peak {
				t.Errorf("polar(%d ulp, %d ulp) = %v exceeds the q = 2^-104 peak %v", i, j, x, peak)
			}
		}
	}
	s := New(47)
	for i := 0; i < 100000; i++ {
		if x := s.NormFloat64(); math.Abs(x) > MaxAbsNorm {
			t.Fatalf("NormFloat64 = %v exceeds MaxAbsNorm", x)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	for i, c := range counts {
		expect := float64(draws) / n
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d: count %d deviates >5 sigma from %v", i, c, expect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	s := New(19)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal(10,2) mean = %v, want ~10", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(23)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(29)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v out of range", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestExpMean(t *testing.T) {
	s := New(37)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := perm(s, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("PermInto(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermIntoMatchesIntnLoop pins PermInto to the Fisher–Yates loop over
// Intn it replaces: the same permutation and the same stream state after
// it.
func TestPermIntoMatchesIntnLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100, 4099, 65536} {
		s, ref := New(uint64(n)+3), New(uint64(n)+3)
		got := perm(s, n)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := ref.Intn(i + 1)
			want[i], want[j] = want[j], want[i]
		}
		if !slices.Equal(got, want) {
			t.Errorf("n=%d: PermInto differs from the Intn loop", n)
		}
		if s.s != ref.s {
			t.Errorf("n=%d: stream state after PermInto %x, after the Intn loop %x", n, s.s, ref.s)
		}
	}
}

func TestQuickDeriveDeterminism(t *testing.T) {
	f := func(seed uint64, label string, n uint8) bool {
		a := New(seed).Derive(label, int(n))
		b := New(seed).Derive(label, int(n))
		return a.Uint64() == b.Uint64() && a.Float64() == b.Float64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		v := New(seed).Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkPermInto(b *testing.B) {
	s := New(7)
	p := make([]int32, 65536)
	for i := 0; i < b.N; i++ {
		s.PermInto(p)
	}
}

func BenchmarkDerive(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Derive("row", i)
	}
}

func BenchmarkPrefixInts(b *testing.B) {
	p := New(1).Prefix("trcditer", 0, 4711)
	var sink uint64
	for i := 0; i < b.N; i++ {
		s := p.Ints(i, 3)
		sink += s.Uint64()
	}
	_ = sink
}
