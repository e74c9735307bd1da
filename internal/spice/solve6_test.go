package spice

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// patRand fills a 6x6 matrix with random entries on the cellPattern6
// structure: uniformly drawn magnitudes on pattern positions, exact zeros
// everywhere else. diagBoost > 1 makes the matrix diagonally dominant, which
// keeps solve6Cell on its fast path; diagBoost < 1 forces off-diagonal
// pivots that trip the mid-solve fallback.
func patRand(rng *rand.Rand, diagBoost float64) ([]float64, []float64) {
	a := make([]float64, 36)
	b := make([]float64, 6)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if cellPattern6[r]&(1<<uint(c)) != 0 {
				v := rng.Float64()*2 - 1
				if r == c {
					v = (rng.Float64() + 0.5) * diagBoost
				}
				a[r*6+c] = v
			}
		}
		b[r] = rng.Float64()*2 - 1
	}
	return a, b
}

// solve6Cell is the structural elimination of cellIter as a standalone
// solve, the oracle that pins it to the partial-pivot solve: for matrices
// whose nonzero pattern is within cellPattern6 it performs exactly the
// float operations the generic elimination performs on this pattern — the
// same pivot-search decisions, the same f==0 row skips, the same
// multiply-subtract per structurally nonzero entry — and omits only
// operations the generic path wastes on exact zeros: subtractions of f*0 inside skipped columns and
// dead writes to subdiagonal entries never read again. Results are
// bit-for-bit equal to solve6. Whenever a pivot search would leave the
// diagonal (never observed for the diagonally dominant cell system, but
// parameter sets are user data) or a diagonal underflows the singularity
// floor, it falls back mid-solve to the generic continuation, which is
// decision-identical because the elimination state up to that column is.
func solve6Cell(as []float64, bs []float64) error {
	a := (*[36]float64)(as)
	b := (*[6]float64)(bs)

	// Column 0: the only subdiagonal entry is (1,0).
	d := abs(a[0])
	if abs(a[6]) > d || d < 1e-18 {
		return solve6From(a, b, 0)
	}
	if f := a[6] * (1 / a[0]); f != 0 {
		a[7] -= f * a[1]
		b[1] -= f * b[0]
	}
	// Column 1: subdiagonal (2,1).
	d = abs(a[7])
	if abs(a[13]) > d || d < 1e-18 {
		return solve6From(a, b, 1)
	}
	if f := a[13] * (1 / a[7]); f != 0 {
		a[14] -= f * a[8]
		b[2] -= f * b[1]
	}
	// Column 2: subdiagonal (3,2).
	d = abs(a[14])
	if abs(a[20]) > d || d < 1e-18 {
		return solve6From(a, b, 2)
	}
	if f := a[20] * (1 / a[14]); f != 0 {
		a[21] -= f * a[15]
		b[3] -= f * b[2]
	}
	// Column 3: subdiagonal (5,3) — the sense-amp gate coupling.
	d = abs(a[21])
	if abs(a[33]) > d || d < 1e-18 {
		return solve6From(a, b, 3)
	}
	if f := a[33] * (1 / a[21]); f != 0 {
		a[35] -= f * a[23]
		b[5] -= f * b[3]
	}
	// Column 4: subdiagonal (5,4).
	d = abs(a[28])
	if abs(a[34]) > d || d < 1e-18 {
		return solve6From(a, b, 4)
	}
	if f := a[34] * (1 / a[28]); f != 0 {
		a[35] -= f * a[29]
		b[5] -= f * b[4]
	}
	// Column 5 has no subdiagonal; only the singularity floor remains.
	if abs(a[35]) < 1e-18 {
		return solve6From(a, b, 5)
	}

	// Back-substitution over the structural upper triangle.
	b[5] = b[5] / a[35]
	b[4] = (b[4] - a[29]*b[5]) / a[28]
	b[3] = (b[3] - a[23]*b[5]) / a[21]
	b[2] = (b[2] - a[15]*b[3]) / a[14]
	b[1] = (b[1] - a[8]*b[2]) / a[7]
	b[0] = (b[0] - a[1]*b[1]) / a[0]
	return nil
}

// TestSolve6CellMatchesGeneric is the property test behind the cellPattern6
// contract: for matrices on the cell structure, solve6Cell (and therefore
// the elimination in cellIter, which repeats the identical operation
// sequence) returns bit-for-bit the generic partial-pivot
// solution — including when a pivot guard trips and the solve falls back
// mid-elimination.
func TestSolve6CellMatchesGeneric(t *testing.T) {
	// Structural properties the fast path is built on: exactly one
	// subdiagonal entry per column (except the last), and natural-order
	// elimination produces no fill-in outside the pattern.
	for c := 0; c < 5; c++ {
		subs := 0
		for r := c + 1; r < 6; r++ {
			if cellPattern6[r]&(1<<uint(c)) != 0 {
				subs++
			}
		}
		if subs != 1 {
			t.Fatalf("column %d has %d structural subdiagonal entries, want 1", c, subs)
		}
	}
	pat := cellPattern6
	for col := 0; col < 6; col++ {
		for r := col + 1; r < 6; r++ {
			if pat[r]&(1<<uint(col)) == 0 {
				continue
			}
			fill := (pat[col] &^ pat[r]) &^ (1<<uint(col) - 1)
			if fill != 0 {
				t.Fatalf("elimination of (%d,%d) fills columns %06b outside the pattern", r, col, fill)
			}
			pat[r] |= pat[col] &^ (1<<uint(col) - 1)
		}
	}

	rng := rand.New(rand.NewSource(2022))
	cases := []struct {
		name      string
		diagBoost float64
	}{
		{"dominant-fast-path", 50}, // pivot guards never trip
		{"balanced", 1},            // guards trip on some draws
		{"offdiag-dominant", 0.01}, // nearly every column falls back
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trips := 0
			for trial := 0; trial < 500; trial++ {
				a, b := patRand(rng, tc.diagBoost)
				ag := append([]float64(nil), a...)
				bg := append([]float64(nil), b...)
				if abs(a[6]) > abs(a[0]) {
					trips++
				}
				errC := solve6Cell(a, b)
				errG := solve6From((*[36]float64)(ag), (*[6]float64)(bg), 0)
				if (errC == nil) != (errG == nil) {
					t.Fatalf("trial %d: error mismatch: cell=%v generic=%v", trial, errC, errG)
				}
				if errC != nil {
					continue
				}
				for i := 0; i < 6; i++ {
					if math.Float64bits(b[i]) != math.Float64bits(bg[i]) {
						t.Fatalf("trial %d: x[%d] differs: cell=%x generic=%x",
							trial, i, math.Float64bits(b[i]), math.Float64bits(bg[i]))
					}
				}
			}
			if tc.diagBoost < 1 && trips == 0 {
				t.Fatalf("off-diagonal case never tripped a pivot guard; test is not exercising the fallback")
			}
		})
	}

	// Singular systems must error identically through both paths.
	a := make([]float64, 36)
	b := make([]float64, 6)
	if err := solve6Cell(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular system: got %v, want ErrSingular", err)
	}
}
