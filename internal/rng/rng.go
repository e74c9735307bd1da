// Package rng provides deterministic, hierarchically derivable pseudo-random
// number streams for the simulation stack.
//
// Every stochastic quantity in the repository (per-cell RowHammer thresholds,
// retention times, Monte-Carlo circuit parameters, measurement noise) is drawn
// from a Stream derived from a stable chain of labels, e.g.
//
//	rng.New(seed).Derive("module", "B3").Derive("bank", 0).Derive("row", 4711)
//
// so that re-running any experiment reproduces identical numbers regardless of
// execution order or concurrency. The generator is xoshiro256++ seeded through
// splitmix64, both public-domain algorithms with well-studied statistical
// quality; no math/rand global state is ever used.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator. The zero value is
// not useful; construct streams with New or Derive. A Stream is NOT safe for
// concurrent use; derive one stream per goroutine instead.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from the given 64-bit seed using splitmix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

// seeded is New by value.
func seeded(seed uint64) Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	return st
}

// Derive returns a new independent Stream identified by the given label parts.
// Derivation is stable: the same parent state and labels always produce the
// same child stream. Deriving does not advance the parent, but a child
// depends on the parent's current state, so children derived after the
// parent has drawn differ from those derived before. Labels may be strings,
// integers, or floats; any other value is hashed by its fmt.Sprint text.
func (s *Stream) Derive(labels ...any) *Stream {
	h := s.stateHash()
	for _, l := range labels {
		switch v := l.(type) {
		case string:
			h = h.addString(v)
		case int:
			h = h.addWord(uint64(int64(v)))
		case int64:
			h = h.addWord(uint64(v))
		case uint64:
			h = h.addWord(v)
		case float64:
			h = h.addWord(math.Float64bits(v))
		default:
			h = h.addString(fmt.Sprint(v))
		}
		h = h.addByte(labelSep)
	}
	return New(uint64(h))
}

// DeriveInts returns the stream Derive(label, ids...) returns; it hashes the
// same bytes. It returns the stream by value and boxes nothing, so it
// allocates nothing: the DRAM read path derives its per-column streams
// with it.
func (s *Stream) DeriveInts(label string, ids ...int) Stream {
	return s.Prefix(label, ids...).Ints()
}

// Prefix is a derivation hash stopped after a stream's state, a label and
// leading ids. Callers that derive many streams sharing that prefix hash it
// once and hash only the trailing ids per stream.
type Prefix struct{ h fnv64a }

// Prefix hashes the stream's state, label and the leading ids. It does not
// advance the stream, and it keeps the state of the call: streams derived
// from it after s has drawn are the ones s derived before.
func (s *Stream) Prefix(label string, ids ...int) Prefix {
	return Prefix{s.stateHash().addString(label).addByte(labelSep)}.extend(ids)
}

// Ints returns the stream DeriveInts(label, leading..., ids...) returns for
// the prefix's stream, label and leading ids. It allocates nothing.
func (p Prefix) Ints(ids ...int) Stream {
	return seeded(uint64(p.extend(ids).h))
}

// extend hashes ids after the prefix, each ended by the label separator.
func (p Prefix) extend(ids []int) Prefix {
	for _, id := range ids {
		p.h = p.h.addWord(uint64(int64(id))).addByte(labelSep)
	}
	return p
}

// fnv64a is a running 64-bit FNV-1a hash.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
	// labelSep ends every label so ("ab","c") != ("a","bc").
	labelSep = 0x1f
)

func (h fnv64a) addByte(b byte) fnv64a { return (h ^ fnv64a(b)) * fnvPrime64 }

func (h fnv64a) addString(v string) fnv64a {
	for i := 0; i < len(v); i++ {
		h = h.addByte(v[i])
	}
	return h
}

// addWord hashes v's eight little-endian bytes.
func (h fnv64a) addWord(v uint64) fnv64a {
	for i := 0; i < 64; i += 8 {
		h = h.addByte(byte(v >> i))
	}
	return h
}

// stateHash starts a derivation hash from the stream's state words.
func (s *Stream) stateHash() fnv64a {
	h := fnvOffset64
	for _, st := range s.s {
		h = h.addWord(st)
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256++).
func (s *Stream) Uint64() uint64 {
	var v uint64
	v, s.s[0], s.s[1], s.s[2], s.s[3] = next(s.s[0], s.s[1], s.s[2], s.s[3])
	return v
}

// next is one xoshiro256++ step: the output and the successor state.
func next(s0, s1, s2, s3 uint64) (v, t0, t1, t2, t3 uint64) {
	v = rotl(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return v, s0, s1, s2, s3
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers control n so this indicates a programmer error.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := s.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// MaxAbsNorm bounds |NormFloat64()|. The polar method returns
// u·√(−2 ln q / q) with q = u² + v², and |u| ≤ √q, so |x| ≤ √(−2 ln q).
// Float64 has 53-bit resolution, so u = 2f − 1 and v are exact multiples of
// 2⁻⁵², the smallest accepted q is 2⁻¹⁰⁴, and |x| ≤ √(208 ln 2) ≈ 12.0073.
// The constant rounds that up, which also covers the rounding of q.
const MaxAbsNorm = 12.01

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
// Its magnitude never exceeds MaxAbsNorm.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)), i.e. a log-normally distributed
// variate parameterized by the underlying normal's mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate).
func (s *Stream) Exp(rate float64) float64 {
	return -math.Log(1-s.Float64()) / rate
}

// PermInto fills p with a random permutation of [0, len(p)) (Fisher–Yates).
// It makes exactly the draws of the loop
//
//	for i := len(p) - 1; i > 0; i-- {
//		j := s.Intn(i + 1)
//		p[i], p[j] = p[j], p[i]
//	}
//
// over an identity-filled p, and leaves the stream in the same state, but
// holds the generator's four words in locals for the whole shuffle.
func (s *Stream) PermInto(p []int32) {
	for i := range p {
		p[i] = int32(i)
	}
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := len(p) - 1; i > 0; i-- {
		// Intn(i+1), with Uint64 inlined on the local state.
		n := uint64(i + 1)
		var v uint64
		v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		hi, lo := bits.Mul64(v, n)
		if lo < n {
			thresh := -n % n
			for lo < thresh {
				v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				hi, lo = bits.Mul64(v, n)
			}
		}
		p[i], p[hi] = p[hi], p[i]
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}
