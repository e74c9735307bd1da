package experiments

import (
	"context"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/mitigation"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// VPPPoint is one voltage step of a module's RowHammer sweep.
type VPPPoint struct {
	VPP float64
	// ModuleHCFirst is the minimum HCfirst across tested rows (the Table 3
	// module-level metric).
	ModuleHCFirst float64
	// ModuleBER is the mean BER across tested rows at the reference hammer
	// count.
	ModuleBER float64
	// NormHC / NormBER summarize the per-row values normalized to the same
	// row's nominal-VPP value (mean and the 90% band of Figs. 3 and 5).
	NormHC  stats.ConfidenceInterval
	NormBER stats.ConfidenceInterval
}

// ModuleSweep is the full RowHammer-vs-VPP characterization of one module,
// and the RowHammer study's unit partial: its JSON form (the profile by its
// Table 3 label) is the one shard artifacts and store entries carry.
type ModuleSweep struct {
	Profile physics.ModuleProfile `json:"module"`
	Rows    []int                 `json:"rows"`
	WCDP    map[int]pattern.Kind  `json:"wcdp"`
	Points  []VPPPoint            `json:"points"` // descending VPP; Points[0] is nominal
	// RowNormHCAtMin / RowNormBERAtMin summarize the per-row normalized
	// values at VPPmin (the populations of Figs. 4 and 6) as streaming
	// exact distributions: histograms, extremes, and fractions derived from
	// them are bit-identical to retaining the raw per-row values.
	RowNormHCAtMin  stats.Dist `json:"row_norm_hc_at_min"`
	RowNormBERAtMin stats.Dist `json:"row_norm_ber_at_min"`
}

// PointAt returns the sweep point measured at the given voltage.
func (s ModuleSweep) PointAt(vpp float64) (VPPPoint, bool) {
	for _, p := range s.Points {
		if p.VPP == vpp {
			return p, true
		}
	}
	return VPPPoint{}, false
}

// Nominal returns the 2.5 V point.
func (s ModuleSweep) Nominal() VPPPoint { return s.Points[0] }

// AtVPPMin returns the lowest-voltage point.
func (s ModuleSweep) AtVPPMin() VPPPoint { return s.Points[len(s.Points)-1] }

// RunModuleSweep characterizes one module across its VPP range: WCDP
// profiling at nominal voltage, then HCfirst and BER per row per level
// (Alg. 1 through the SoftMC controller on the assembled testbed).
func RunModuleSweep(ctx context.Context, o Options, prof physics.ModuleProfile) (ModuleSweep, error) {
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	sweep := ModuleSweep{Profile: prof, WCDP: make(map[int]pattern.Kind)}
	sweep.Rows = selectVictims(tester, o)
	if len(sweep.Rows) == 0 {
		return sweep, fmt.Errorf("module %s: no testable victim rows", prof.Name)
	}

	// WCDP is profiled once at nominal VPP and reused at reduced levels
	// (§4.1 "Data Patterns").
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return sweep, err
	}
	for _, row := range sweep.Rows {
		k, err := tester.SelectWCDP(row)
		if err != nil {
			return sweep, fmt.Errorf("module %s row %d WCDP: %w", prof.Name, row, err)
		}
		sweep.WCDP[row] = k
	}

	type rowSeries struct{ hc, ber []float64 }
	series := make(map[int]*rowSeries, len(sweep.Rows))
	for _, row := range sweep.Rows {
		series[row] = &rowSeries{}
	}

	levels := o.vppLevels(prof)
	for _, vpp := range levels {
		if err := ctx.Err(); err != nil {
			return sweep, err
		}
		if err := tb.SetVPP(vpp); err != nil {
			return sweep, err
		}
		pt := VPPPoint{VPP: vpp}
		var hcMin stats.MinMax
		var berMean stats.Moments
		for _, row := range sweep.Rows {
			res, err := tester.CharacterizeRow(row, sweep.WCDP[row])
			if err != nil {
				return sweep, fmt.Errorf("module %s row %d at %.1fV: %w", prof.Name, row, vpp, err)
			}
			s := series[row]
			s.hc = append(s.hc, float64(res.HCFirst))
			s.ber = append(s.ber, res.BER)
			hcMin.Add(float64(res.HCFirst))
			berMean.Add(res.BER)
		}
		pt.ModuleHCFirst, _ = hcMin.Min()
		pt.ModuleBER = berMean.Mean()
		sweep.Points = append(sweep.Points, pt)
	}

	// Normalized per-row populations relative to the nominal level, folded
	// into streaming distributions as they are derived.
	for li := range levels {
		var normHC, normBER stats.Dist
		for _, row := range sweep.Rows {
			s := series[row]
			if s.hc[0] > 0 {
				normHC.Add(s.hc[li] / s.hc[0])
			}
			if s.ber[0] > 0 {
				normBER.Add(s.ber[li] / s.ber[0])
			}
		}
		if ci, err := normHC.CI(0.90); err == nil {
			sweep.Points[li].NormHC = ci
		}
		if ci, err := normBER.CI(0.90); err == nil {
			sweep.Points[li].NormBER = ci
		}
		if li == len(levels)-1 {
			sweep.RowNormHCAtMin = normHC
			sweep.RowNormBERAtMin = normBER
		}
	}
	return sweep, nil
}

// RowHammerStudy is the full Fig. 3-6 / Table 3 campaign across modules.
type RowHammerStudy struct {
	Sweeps []ModuleSweep
}

// RenderFig3 emits the normalized BER curves (one panel per manufacturer).
func (st RowHammerStudy) RenderFig3(enc report.Encoder) error {
	return st.renderNormPanels(enc, "Fig. 3: Normalized RowHammer BER vs VPP",
		func(p VPPPoint) float64 { return p.NormBER.Mean })
}

// RenderFig5 emits the normalized HCfirst curves.
func (st RowHammerStudy) RenderFig5(enc report.Encoder) error {
	return st.renderNormPanels(enc, "Fig. 5: Normalized HCfirst vs VPP",
		func(p VPPPoint) float64 { return p.NormHC.Mean })
}

func (st RowHammerStudy) renderNormPanels(enc report.Encoder, title string, pick func(VPPPoint) float64) error {
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		plot := report.LinePlot{
			Title:  fmt.Sprintf("%s - Mfr. %s", title, mfr),
			XLabel: "VPP (V)", YLabel: "normalized",
			Width: 64, Height: 12,
		}
		for _, sw := range st.Sweeps {
			if sw.Profile.Mfr != mfr {
				continue
			}
			s := report.Series{Name: sw.Profile.Name}
			for _, p := range sw.Points {
				s.X = append(s.X, p.VPP)
				s.Y = append(s.Y, pick(p))
			}
			plot.Series = append(plot.Series, s)
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

// PopulationHistogram bins the per-row normalized values at VPPmin for one
// manufacturer (Figs. 4 and 6) from the streamed per-module distributions,
// merged in catalog order — identical to binning the raw values.
func (st RowHammerStudy) PopulationHistogram(mfr physics.Manufacturer, hcFirst bool, bins int) (stats.Histogram, error) {
	var d stats.Dist
	for _, sw := range st.Sweeps {
		if sw.Profile.Mfr != mfr {
			continue
		}
		if hcFirst {
			d.Merge(sw.RowNormHCAtMin)
		} else {
			d.Merge(sw.RowNormBERAtMin)
		}
	}
	lo, hi, err := d.Counts.Range()
	if err != nil {
		return stats.Histogram{}, err
	}
	if hi <= lo {
		hi = lo + 0.01
	}
	return d.Histogram(lo, hi, bins)
}

// RenderFig4 and RenderFig6 emit the population distributions.
func (st RowHammerStudy) RenderFig4(enc report.Encoder) error { return st.renderPopulation(enc, false) }

// RenderFig6 emits the HCfirst population distribution at VPPmin.
func (st RowHammerStudy) RenderFig6(enc report.Encoder) error { return st.renderPopulation(enc, true) }

func (st RowHammerStudy) renderPopulation(enc report.Encoder, hcFirst bool) error {
	metric := "BER"
	fig := "Fig. 4"
	if hcFirst {
		metric = "HCfirst"
		fig = "Fig. 6"
	}
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		h, err := st.PopulationHistogram(mfr, hcFirst, 12)
		if err != nil {
			continue
		}
		chart := report.BarChart{
			Title: fmt.Sprintf("%s: normalized %s at VPPmin - Mfr. %s (rows: %d)", fig, metric, mfr, h.Total),
			Width: 40,
		}
		for _, b := range h.Bins {
			chart.Labels = append(chart.Labels, fmt.Sprintf("%.2f-%.2f", b.Lo, b.Hi))
			chart.Values = append(chart.Values, b.Fraction)
		}
		if err := enc.Bars(&chart); err != nil {
			return err
		}
	}
	return nil
}

// Table3 builds the per-module characterization table: the operating points
// at nominal VPP, at VPPmin, and at the policy-recommended VPP.
func (st RowHammerStudy) Table3() *report.Table {
	t := &report.Table{
		Title: "Table 3: module RowHammer characteristics under VPP scaling",
		Headers: []string{"DIMM", "Mfr", "HCfirst@2.5V", "BER@2.5V",
			"VPPmin", "HCfirst@min", "BER@min", "VPPrec", "HCfirst@rec", "BER@rec"},
	}
	for _, sw := range st.Sweeps {
		var vpps, hcs, bers []float64
		for _, p := range sw.Points {
			vpps = append(vpps, p.VPP)
			hcs = append(hcs, p.ModuleHCFirst)
			bers = append(bers, p.ModuleBER)
		}
		rec, idx, err := mitigation.RecommendVPP(vpps, hcs, bers)
		if err != nil {
			continue
		}
		nom, min := sw.Nominal(), sw.AtVPPMin()
		t.Add(sw.Profile.Name, sw.Profile.Mfr.String(),
			nom.ModuleHCFirst, fmt.Sprintf("%.2e", nom.ModuleBER),
			min.VPP, min.ModuleHCFirst, fmt.Sprintf("%.2e", min.ModuleBER),
			rec, sw.Points[idx].ModuleHCFirst, fmt.Sprintf("%.2e", sw.Points[idx].ModuleBER))
	}
	return t
}

// Aggregates are the §5 summary statistics.
type Aggregates struct {
	MeanHCIncreasePct float64 // paper: +7.4%
	MaxHCIncreasePct  float64 // paper: +85.8%
	MeanBERChangePct  float64 // paper: -15.2%
	MaxBERDropPct     float64 // paper: -66.9%
	FracRowsHCUp      float64 // paper: 69.3%
	FracRowsHCDown    float64 // paper: 14.2%
	FracRowsBERDown   float64 // paper: 81.2%
	FracRowsBERUp     float64 // paper: 15.4%
}

// Section5Aggregates computes the row-level aggregates at VPPmin across all
// swept modules by merging the per-module streamed populations in catalog
// order.
func (st RowHammerStudy) Section5Aggregates() Aggregates {
	var normHC, normBER stats.Dist
	for _, sw := range st.Sweeps {
		normHC.Merge(sw.RowNormHCAtMin)
		normBER.Merge(sw.RowNormBERAtMin)
	}
	var a Aggregates
	if normHC.N() == 0 {
		return a
	}
	a.MeanHCIncreasePct = (normHC.Mean() - 1) * 100
	a.MaxHCIncreasePct = (normHC.Max() - 1) * 100
	a.MeanBERChangePct = (normBER.Mean() - 1) * 100
	a.MaxBERDropPct = (1 - normBER.Min()) * 100
	a.FracRowsHCUp = normHC.FractionAbove(1)
	a.FracRowsHCDown = normHC.FractionBelow(1)
	a.FracRowsBERDown = normBER.FractionBelow(1)
	a.FracRowsBERUp = normBER.FractionAbove(1)
	return a
}

// Render emits the aggregates next to the paper's published values.
func (a Aggregates) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Section 5 aggregates at VPPmin (measured vs paper)",
		Headers: []string{"metric", "measured", "paper"},
	}
	t.Add("mean HCfirst increase %", fmt.Sprintf("%.1f", a.MeanHCIncreasePct), "7.4")
	t.Add("max HCfirst increase %", fmt.Sprintf("%.1f", a.MaxHCIncreasePct), "85.8")
	t.Add("mean BER change %", fmt.Sprintf("%.1f", a.MeanBERChangePct), "-15.2")
	t.Add("max BER reduction %", fmt.Sprintf("%.1f", a.MaxBERDropPct), "66.9")
	t.Add("rows with HCfirst increase", fmt.Sprintf("%.3f", a.FracRowsHCUp), "0.693")
	t.Add("rows with HCfirst decrease", fmt.Sprintf("%.3f", a.FracRowsHCDown), "0.142")
	t.Add("rows with BER decrease", fmt.Sprintf("%.3f", a.FracRowsBERDown), "0.812")
	t.Add("rows with BER increase", fmt.Sprintf("%.3f", a.FracRowsBERUp), "0.154")
	return enc.Table(t)
}
