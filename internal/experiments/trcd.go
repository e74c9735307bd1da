package experiments

import (
	"context"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// TRCDSweep is one module's minimum-reliable-activation-latency study
// (Fig. 7), and the tRCD study's unit partial.
type TRCDSweep struct {
	Profile physics.ModuleProfile `json:"module"`
	Rows    []int                 `json:"rows"`
	VPP     []float64             `json:"vpp"`
	// ModuleTRCDMinNS is, per VPP level, the largest per-row tRCDmin (the
	// latency the whole module needs to be reliable).
	ModuleTRCDMinNS []float64 `json:"module_trcd_min_ns"`
	// FixVerified reports, for modules exceeding the nominal latency,
	// whether the published fix latency (24/15 ns) ran without faults at
	// VPPmin.
	FixVerified bool `json:"fix_verified"`
}

// ExceedsNominal reports whether the module's tRCDmin surpasses the nominal
// 13.5 ns anywhere in the sweep.
func (s TRCDSweep) ExceedsNominal() bool {
	for _, v := range s.ModuleTRCDMinNS {
		if v > physics.TRCDNominalNS {
			return true
		}
	}
	return false
}

// GuardbandReduction returns 1 - guardband(VPPmin)/guardband(nominal); only
// meaningful for modules that stay under the nominal latency. Because the
// FPGA measures on a 1.5 ns command grid, modules whose latency shift stays
// within one grid step legitimately report zero.
func (s TRCDSweep) GuardbandReduction() float64 {
	if len(s.ModuleTRCDMinNS) == 0 {
		return 0
	}
	gbNom := physics.TRCDNominalNS - s.ModuleTRCDMinNS[0]
	gbMin := physics.TRCDNominalNS - s.ModuleTRCDMinNS[len(s.ModuleTRCDMinNS)-1]
	if gbNom <= 0 {
		return 0
	}
	return 1 - gbMin/gbNom
}

// RunTRCDSweep measures a module's tRCDmin across VPP levels via Alg. 2.
// Rows are a reduced set (latency tests are per-column and costly).
func RunTRCDSweep(ctx context.Context, o Options, prof physics.ModuleProfile) (TRCDSweep, error) {
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	sweep := TRCDSweep{Profile: prof}

	rows := core.SelectRows(o.Geometry, o.Chunks, 2)
	sweep.Rows = rows
	if len(rows) == 0 {
		return sweep, fmt.Errorf("module %s: no rows", prof.Name)
	}

	// tRCD WCDP per row at nominal voltage (§4.3).
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return sweep, err
	}
	wcdp := make(map[int]pattern.Kind, len(rows))
	for _, row := range rows {
		k, err := tester.SelectTRCDWCDP(row)
		if err != nil {
			return sweep, fmt.Errorf("module %s row %d tRCD WCDP: %w", prof.Name, row, err)
		}
		wcdp[row] = k
	}

	for _, vpp := range o.vppLevels(prof) {
		if err := ctx.Err(); err != nil {
			return sweep, err
		}
		if err := tb.SetVPP(vpp); err != nil {
			return sweep, err
		}
		worst := 0.0
		for _, row := range rows {
			res, err := tester.CharacterizeRowTRCD(row, wcdp[row])
			if err != nil {
				return sweep, fmt.Errorf("module %s row %d at %.1fV: %w", prof.Name, row, vpp, err)
			}
			if res.MinReliableNS > worst {
				worst = res.MinReliableNS
			}
		}
		sweep.VPP = append(sweep.VPP, vpp)
		sweep.ModuleTRCDMinNS = append(sweep.ModuleTRCDMinNS, worst)
	}

	// Verify the published fix for failing modules: at VPPmin with tRCD set
	// to the fix latency, no row may fault.
	if prof.TRCDFailsNominal {
		if err := tb.SetVPP(prof.VPPMin); err != nil {
			return sweep, err
		}
		if err := tb.Controller.SetTRCD(prof.TRCDFixNS); err != nil {
			return sweep, err
		}
		sweep.FixVerified = true
		for _, row := range rows {
			// initialize_row runs at nominal timing; the read uses the fix.
			if err := tb.Controller.InitializeRow(0, row, wcdp[row].Byte()); err != nil {
				return sweep, err
			}
			data, err := tb.Controller.ReadRow(0, row)
			if err != nil {
				return sweep, err
			}
			for _, b := range data {
				if b != wcdp[row].Byte() {
					sweep.FixVerified = false
				}
			}
		}
		tb.Controller.ResetTiming()
	}
	return sweep, nil
}

// TRCDStudy is the Fig. 7 / §6.1 campaign.
type TRCDStudy struct {
	Sweeps []TRCDSweep
}

// RenderFig7 emits the per-module tRCDmin curves by manufacturer panel.
func (st TRCDStudy) RenderFig7(enc report.Encoder) error {
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		plot := report.LinePlot{
			Title:  fmt.Sprintf("Fig. 7: minimum reliable tRCD vs VPP - Mfr. %s (nominal = 13.5ns)", mfr),
			XLabel: "VPP (V)", YLabel: "tRCDmin (ns)",
			Width: 64, Height: 12,
		}
		for _, sw := range st.Sweeps {
			if sw.Profile.Mfr != mfr {
				continue
			}
			plot.Series = append(plot.Series, report.Series{
				Name: sw.Profile.Name, X: sw.VPP, Y: sw.ModuleTRCDMinNS,
			})
		}
		if len(plot.Series) == 0 {
			continue
		}
		if err := enc.Plot(&plot); err != nil {
			return err
		}
	}
	return nil
}

// GuardbandSummary is the §6.1 outcome.
type GuardbandSummary struct {
	// PassingModules stayed under nominal tRCD across the sweep.
	PassingModules int
	// FailingModules exceeded nominal tRCD (paper: 5 modules, 64 chips).
	FailingModules int
	FailingChips   int
	// MeanGuardbandReduction across passing modules (paper: 21.9%).
	MeanGuardbandReduction float64
	// AllFixesVerified reports whether every failing module ran cleanly at
	// its published fix latency.
	AllFixesVerified bool
}

// Summary computes the §6.1 aggregates, streaming the passing modules'
// guardband reductions instead of collecting them.
func (st TRCDStudy) Summary() GuardbandSummary {
	var s GuardbandSummary
	s.AllFixesVerified = true
	var reductions stats.Moments
	for _, sw := range st.Sweeps {
		if sw.ExceedsNominal() {
			s.FailingModules++
			s.FailingChips += sw.Profile.Chips()
			if !sw.FixVerified {
				s.AllFixesVerified = false
			}
		} else {
			s.PassingModules++
			reductions.Add(sw.GuardbandReduction())
		}
	}
	s.MeanGuardbandReduction = reductions.Mean()
	return s
}

// Render emits the summary against the paper's numbers.
func (s GuardbandSummary) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Section 6.1: activation latency under reduced VPP (measured vs paper)",
		Headers: []string{"metric", "measured", "paper"},
	}
	t.Add("modules within nominal tRCD", s.PassingModules, "25 of 30")
	t.Add("modules exceeding nominal tRCD", s.FailingModules, "5 (A0-A2, B2, B5)")
	t.Add("chips exceeding nominal tRCD", s.FailingChips, "64")
	t.Add("mean guardband reduction", fmt.Sprintf("%.1f%%", s.MeanGuardbandReduction*100), "21.9%")
	t.Add("24ns/15ns fixes verified", s.AllFixesVerified, "yes")
	return enc.Table(t)
}
