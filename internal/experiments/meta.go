package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// Table1 groups the tested modules the way the paper's chip summary does.
func Table1(enc report.Encoder) error {
	type key struct {
		mfr     physics.Manufacturer
		density int
		rev     string
		org     physics.ChipOrg
		date    string
	}
	groups := map[key]int{}
	for _, p := range physics.Profiles() {
		groups[key{p.Mfr, p.DensityGb, p.DieRev, p.Org, p.MfgDate}]++
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	// The comparator must be total: the keys come out of a map, and two
	// groups tie on (mfr, density, rev), so anything short of a full key
	// comparison made the row order depend on map iteration order.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.mfr != b.mfr {
			return a.mfr < b.mfr
		}
		if a.density != b.density {
			return a.density < b.density
		}
		if a.rev != b.rev {
			return a.rev < b.rev
		}
		if a.org != b.org {
			return a.org < b.org
		}
		return a.date < b.date
	})
	t := &report.Table{
		Title:   fmt.Sprintf("Table 1: summary of the tested DDR4 DRAM chips (%d chips total)", physics.TotalChips()),
		Headers: []string{"Mfr", "#DIMMs", "#Chips", "Density", "Die Rev.", "Org.", "Date"},
	}
	for _, k := range keys {
		dimms := groups[k]
		t.Add(k.mfr.String(), dimms, dimms*k.org.ChipsPerDIMM(),
			fmt.Sprintf("%dGb", k.density), k.rev, k.org.String(), k.date)
	}
	return enc.Table(t)
}

// CVStudy is the §4.6 statistical-significance analysis: the coefficient of
// variation across ten repeated BER measurements per row (paper: 0.08 / 0.13
// / 0.24 at the 90th / 95th / 99th percentiles).
type CVStudy struct {
	// CVs summarizes the coefficient-of-variation population, one sample
	// per (module, row, VPP) measurement series, as a streaming exact
	// distribution: the percentiles below are bit-identical to sorting the
	// raw population, without retaining it.
	CVs stats.Dist
	P90 float64
	P95 float64
	P99 float64
}

// assembleCV merges per-module CV populations — already in catalog order —
// into the study summary.
func assembleCV(perModule []stats.Dist) CVStudy {
	var st CVStudy
	for _, cvs := range perModule {
		st.CVs.Merge(cvs)
	}
	if st.CVs.N() > 0 {
		st.P90, _ = st.CVs.Percentile(90)
		st.P95, _ = st.CVs.Percentile(95)
		st.P99, _ = st.CVs.Percentile(99)
	}
	return st
}

// runModuleCV folds one module's CV population at nominal VPP and VPPmin
// into a streaming distribution, summarizing each series as it is measured.
func runModuleCV(ctx context.Context, o Options, prof physics.ModuleProfile) (stats.Dist, error) {
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	rows := selectVictims(tester, o)
	if len(rows) > 6 {
		rows = rows[:6]
	}
	var cvs stats.Dist
	for _, vpp := range []float64{physics.VPPNominal, prof.VPPMin} {
		if err := tb.SetVPP(vpp); err != nil {
			return cvs, err
		}
		for _, row := range rows {
			series, err := tester.MeasureBERStats(row, pattern.RowStripeFF, o.Config.RefHC, 10)
			if err != nil {
				return cvs, err
			}
			// Require a handful of flipped bits per measurement: series
			// dominated by 1-2 flips measure integer-count discreteness,
			// not methodology noise (the paper's BERs involve thousands
			// of bits per row).
			minBER := 5.0 / float64(o.Geometry.RowBits())
			if series.Mean() < minBER {
				continue
			}
			cv, err := series.CV()
			if err != nil {
				continue // degenerate series (zero mean): no meaningful CV
			}
			cvs.Add(cv)
		}
	}
	return cvs, nil
}

// Render emits the CV percentiles against the paper's.
func (st CVStudy) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Section 4.6: coefficient of variation across 10 iterations",
		Headers: []string{"percentile", "measured", "paper"},
	}
	t.Add("P90", fmt.Sprintf("%.3f", st.P90), "0.08")
	t.Add("P95", fmt.Sprintf("%.3f", st.P95), "0.13")
	t.Add("P99", fmt.Sprintf("%.3f", st.P99), "0.24")
	t.Add("series measured", st.CVs.N(), "-")
	return enc.Table(t)
}
