package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/ecc"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// RetentionStudy is the Fig. 10 campaign: retention BER across refresh
// windows and VPP levels, aggregated per manufacturer.
type RetentionStudy struct {
	WindowsMS []float64
	VPP       []float64
	// MeanBER[mfr][vppIdx][winIdx] is the mean BER across the rows of that
	// manufacturer's modules (only modules whose VPPmin allows the level).
	MeanBER map[physics.Manufacturer][][]float64
	// RowBERAt4s[mfr][vppIdx] summarizes the per-row BER population at
	// tREFW = 4s (the Fig. 10b populations) as a streaming accumulator:
	// rows fold in as they are measured instead of being retained.
	RowBERAt4s map[physics.Manufacturer][]stats.Moments
}

// ModuleRetention is one module's serializable retention partial, measured
// independently so modules can run concurrently (or on different shards) and
// merge in catalog order. All aggregates are streaming: memory per module is
// O(levels x windows), independent of the number of tested rows.
type ModuleRetention struct {
	// Module is the Table 3 label; Mfr its manufacturer.
	Module string               `json:"module"`
	Mfr    physics.Manufacturer `json:"mfr"`
	// Sum and Count hold the [vpp][window] BER sum / row count across rows.
	Sum   [][]float64 `json:"sum"`
	Count [][]int     `json:"count"`
	// Rows is the [vpp] per-row BER population at tREFW = 4s.
	Rows []stats.Moments `json:"rows"`
}

// retentionGrid derives the study's measurement grid from the options: the
// swept VPP levels, the refresh-window ladder, and the index of the 4 s
// window Fig. 10b reports (-1 when the ladder omits it).
func retentionGrid(o Options) (vpps, windows []float64, idx4s int) {
	idx4s = -1
	for i, w := range o.Config.RetentionWindowsMS {
		if w == 4096 {
			idx4s = i
		}
	}
	return o.RetentionVPPLevels, o.Config.RetentionWindowsMS, idx4s
}

// assembleRetention folds per-module partials — already in catalog order —
// into the per-manufacturer study aggregates. Payloads from one process or
// from many shards fold through it alike, so a merged multi-shard campaign
// reproduces the single-process bytes.
func assembleRetention(o Options, perModule []ModuleRetention) (RetentionStudy, error) {
	st := RetentionStudy{
		WindowsMS:  o.Config.RetentionWindowsMS,
		VPP:        o.RetentionVPPLevels,
		MeanBER:    make(map[physics.Manufacturer][][]float64),
		RowBERAt4s: make(map[physics.Manufacturer][]stats.Moments),
	}
	for _, m := range perModule {
		if len(m.Sum) != len(st.VPP) || len(m.Count) != len(st.VPP) || len(m.Rows) != len(st.VPP) {
			return st, fmt.Errorf("experiments: module %s retention partial has %d levels, campaign has %d",
				m.Module, len(m.Sum), len(st.VPP))
		}
		for vi := range m.Sum {
			if len(m.Sum[vi]) != len(st.WindowsMS) || len(m.Count[vi]) != len(st.WindowsMS) {
				return st, fmt.Errorf("experiments: module %s retention partial has %d windows at level %d, campaign has %d",
					m.Module, len(m.Sum[vi]), vi, len(st.WindowsMS))
			}
		}
	}
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		a := ModuleRetention{Mfr: mfr}
		a.Sum = make([][]float64, len(st.VPP))
		a.Count = make([][]int, len(st.VPP))
		a.Rows = make([]stats.Moments, len(st.VPP))
		for i := range a.Sum {
			a.Sum[i] = make([]float64, len(st.WindowsMS))
			a.Count[i] = make([]int, len(st.WindowsMS))
		}
		// Merge in catalog order so Fig. 10b's row populations accumulate
		// identically at any worker count.
		for _, m := range perModule {
			if m.Mfr != mfr {
				continue
			}
			for vi := range m.Sum {
				for wi := range m.Sum[vi] {
					a.Sum[vi][wi] += m.Sum[vi][wi]
					a.Count[vi][wi] += m.Count[vi][wi]
				}
				a.Rows[vi].Merge(m.Rows[vi])
			}
		}
		mean := make([][]float64, len(st.VPP))
		for vi := range a.Sum {
			mean[vi] = make([]float64, len(st.WindowsMS))
			for wi := range a.Sum[vi] {
				if a.Count[vi][wi] > 0 {
					mean[vi][wi] = a.Sum[vi][wi] / float64(a.Count[vi][wi])
				}
			}
		}
		st.MeanBER[mfr] = mean
		st.RowBERAt4s[mfr] = a.Rows
	}
	return st, nil
}

// RunModuleRetention measures one module across the allowed VPP levels — one
// work unit of the sharded retention study.
func RunModuleRetention(ctx context.Context, o Options, prof physics.ModuleProfile) (ModuleRetention, error) {
	vppLevels, windows, idx4s := retentionGrid(o)
	m := ModuleRetention{Module: prof.Name, Mfr: prof.Mfr}
	m.Sum = make([][]float64, len(vppLevels))
	m.Count = make([][]int, len(vppLevels))
	m.Rows = make([]stats.Moments, len(vppLevels))
	for i := range m.Sum {
		m.Sum[i] = make([]float64, len(windows))
		m.Count[i] = make([]int, len(windows))
	}

	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	if err := tb.SetTemperature(physics.RetentionTestTempC); err != nil {
		return m, err
	}
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	rows := core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk)
	for vi, vpp := range vppLevels {
		if vpp < prof.VPPMin-1e-9 {
			continue // module cannot operate here
		}
		if err := tb.SetVPP(vpp); err != nil {
			return m, err
		}
		for _, row := range rows {
			res, err := tester.RetentionSweep(row, pattern.CheckerAA)
			if err != nil {
				return m, fmt.Errorf("module %s row %d at %.1fV: %w", prof.Name, row, vpp, err)
			}
			for wi := range windows {
				m.Sum[vi][wi] += res.Points[wi].BER
				m.Count[vi][wi]++
			}
			if idx4s >= 0 {
				m.Rows[vi].Add(res.Points[idx4s].BER)
			}
		}
	}
	return m, nil
}

// RenderFig10a plots retention BER vs refresh window per manufacturer.
func (st RetentionStudy) RenderFig10a(enc report.Encoder) error {
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		plot := report.LinePlot{
			Title:  fmt.Sprintf("Fig. 10a: retention BER vs refresh window - Mfr. %s", mfr),
			XLabel: "log2(window ms)", YLabel: "BER", Width: 64, Height: 12,
		}
		mean, ok := st.MeanBER[mfr]
		if !ok {
			continue
		}
		for vi, vpp := range st.VPP {
			s := report.Series{Name: fmt.Sprintf("%.1fV", vpp)}
			for wi, win := range st.WindowsMS {
				s.X = append(s.X, log2(win))
				s.Y = append(s.Y, mean[vi][wi])
			}
			plot.Series = append(plot.Series, s)
		}
		if err := enc.Plot(&plot); err != nil {
			return err
		}
	}
	return nil
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

// RenderFig10b emits the mean per-row BER at tREFW = 4s per VPP level.
func (st RetentionStudy) RenderFig10b(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Fig. 10b: retention BER at tREFW = 4s (mean across rows)",
		Headers: []string{"VPP", "Mfr A", "Mfr B", "Mfr C"},
	}
	for vi, vpp := range st.VPP {
		row := []any{fmt.Sprintf("%.1f", vpp)}
		for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
			rows := st.RowBERAt4s[mfr]
			if vi < len(rows) && rows[vi].N() > 0 {
				row = append(row, fmt.Sprintf("%.3f%%", rows[vi].Mean()*100))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return enc.Table(t)
}

// WordAnalysis is the Fig. 11 study: the word-granularity structure of
// retention failures at VPPmin for the smallest failing windows.
type WordAnalysis struct {
	// Distribution64 and Distribution128 map "number of single-flip words
	// in a row" to the fraction of rows exhibiting it, per manufacturer,
	// at the 64 ms and 128 ms windows (failures new at that window).
	Distribution64  map[physics.Manufacturer]map[int]float64
	Distribution128 map[physics.Manufacturer]map[int]float64
	// SECDEDSafe reports that no word anywhere had more than one flip at
	// its row's smallest failing window (Obsv. 14).
	SECDEDSafe bool
	// FracNeedingFastRefresh64/128 are the row fractions that would need
	// the doubled refresh rate (paper: 16.4% and 5.0%).
	FracNeedingFastRefresh64  float64
	FracNeedingFastRefresh128 float64
	// CleanModules64 counts modules with no failures at 64 ms (paper: 23).
	CleanModules64 int
	TotalModules   int
}

// ModuleWords is one module's serializable word-granularity partial — one
// work unit of the sharded Fig. 11 study.
type ModuleWords struct {
	Module     string               `json:"module"`
	Mfr        physics.Manufacturer `json:"mfr"`
	RowCount   int                  `json:"row_count"`
	Clean64    bool                 `json:"clean64"`
	Clean128   bool                 `json:"clean128"`
	At64       map[int]int          `json:"at64"`
	At128      map[int]int          `json:"at128"`
	MultiFlips bool                 `json:"multi_flips"`
}

// assembleWordAnalysis folds per-module partials (in catalog order) into the
// Fig. 11 aggregates.
func assembleWordAnalysis(perModule []ModuleWords) WordAnalysis {
	wa := WordAnalysis{
		Distribution64:  map[physics.Manufacturer]map[int]float64{},
		Distribution128: map[physics.Manufacturer]map[int]float64{},
		SECDEDSafe:      true,
	}

	type mfrCount struct {
		rows       int // rows in modules exhibiting 64ms failures
		rows128    int // rows in modules exhibiting (new) 128ms failures
		at64       map[int]int
		at128      map[int]int
		fail64     int
		fail128New int
	}
	counts := map[physics.Manufacturer]*mfrCount{}
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		counts[mfr] = &mfrCount{at64: map[int]int{}, at128: map[int]int{}}
	}
	for _, m := range perModule {
		wa.TotalModules++
		if m.MultiFlips {
			wa.SECDEDSafe = false
		}
		if m.Clean64 {
			wa.CleanModules64++
		}
		mc := counts[m.Mfr]
		// The Fig. 11 population is "rows in modules exhibiting flips at
		// that window": only failing modules enter the denominators.
		if !m.Clean64 {
			mc.rows += m.RowCount
			for k, n := range m.At64 {
				mc.at64[k] += n
				mc.fail64 += n
			}
		}
		if !m.Clean128 {
			mc.rows128 += m.RowCount
			for k, n := range m.At128 {
				mc.at128[k] += n
				mc.fail128New += n
			}
		}
	}

	rows64, rows128, totalFail64, totalFail128 := 0, 0, 0, 0
	for mfr, mc := range counts {
		wa.Distribution64[mfr] = map[int]float64{}
		wa.Distribution128[mfr] = map[int]float64{}
		for k, n := range mc.at64 {
			wa.Distribution64[mfr][k] = float64(n) / float64(mc.rows)
		}
		for k, n := range mc.at128 {
			wa.Distribution128[mfr][k] = float64(n) / float64(mc.rows128)
		}
		rows64 += mc.rows
		rows128 += mc.rows128
		totalFail64 += mc.fail64
		totalFail128 += mc.fail128New
	}
	if rows64 > 0 {
		wa.FracNeedingFastRefresh64 = float64(totalFail64) / float64(rows64)
	}
	if rows128 > 0 {
		wa.FracNeedingFastRefresh128 = float64(totalFail128) / float64(rows128)
	}
	return wa
}

// RunModuleWords measures one module's word-error structure at VPPmin.
func RunModuleWords(ctx context.Context, o Options, prof physics.ModuleProfile) (ModuleWords, error) {
	m := ModuleWords{
		Module: prof.Name, Mfr: prof.Mfr, Clean64: true, Clean128: true,
		At64: map[int]int{}, At128: map[int]int{},
	}
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	if err := tb.SetTemperature(physics.RetentionTestTempC); err != nil {
		return m, err
	}
	if err := tb.SetVPP(prof.VPPMin); err != nil {
		return m, err
	}
	ctrl := tb.Controller
	rows := core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk)
	m.RowCount = len(rows)

	const fill = 0xAA
	measure := func(row int, windowMS float64) (ecc.WordErrors, error) {
		if err := ctrl.InitializeRow(0, row, fill); err != nil {
			return ecc.WordErrors{}, err
		}
		if err := ctrl.WaitMS(windowMS); err != nil {
			return ecc.WordErrors{}, err
		}
		data, err := ctrl.ReadRowSafe(0, row)
		if err != nil {
			return ecc.WordErrors{}, err
		}
		return ecc.AnalyzeRow(data, fill), nil
	}

	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		we64, err := measure(row, 64)
		if err != nil {
			return m, err
		}
		if we64.WordsWithMultiFlips > 0 {
			m.MultiFlips = true
		}
		if we64.WordsWithOneFlip > 0 {
			m.At64[we64.WordsWithOneFlip]++
			m.Clean64 = false
			continue // 128 ms tier counts only rows clean at 64 ms
		}
		we128, err := measure(row, 128)
		if err != nil {
			return m, err
		}
		if we128.WordsWithMultiFlips > 0 {
			m.MultiFlips = true
		}
		if we128.WordsWithOneFlip > 0 {
			m.At128[we128.WordsWithOneFlip]++
			m.Clean128 = false
		}
	}
	return m, nil
}

// RenderFig11 emits the word-error distributions.
func (wa WordAnalysis) RenderFig11(enc report.Encoder) error {
	render := func(title string, dist map[physics.Manufacturer]map[int]float64) error {
		t := &report.Table{
			Title:   title,
			Headers: []string{"Mfr", "words with one flip", "fraction of rows"},
		}
		for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
			keys := make([]int, 0, len(dist[mfr]))
			for k := range dist[mfr] {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			if len(keys) == 0 {
				t.Add(mfr.String(), "-", "0")
				continue
			}
			for _, k := range keys {
				t.Add(mfr.String(), k, fmt.Sprintf("%.4f", dist[mfr][k]))
			}
		}
		return enc.Table(t)
	}
	if err := render("Fig. 11a: erroneous 64-bit words per row at tREFW = 64ms (VPPmin)", wa.Distribution64); err != nil {
		return err
	}
	if err := render("Fig. 11b: erroneous 64-bit words per row at tREFW = 128ms (VPPmin, rows clean at 64ms)", wa.Distribution128); err != nil {
		return err
	}
	t := &report.Table{Title: "Obsv. 13-15 summary", Headers: []string{"metric", "measured", "paper"}}
	t.Add("modules clean at 64ms", fmt.Sprintf("%d of %d", wa.CleanModules64, wa.TotalModules), "23 of 30")
	t.Add("all failing words SECDED-correctable", wa.SECDEDSafe, "yes")
	t.Add("rows needing 2x refresh @64ms", fmt.Sprintf("%.1f%%", wa.FracNeedingFastRefresh64*100), "16.4%")
	t.Add("rows needing 2x refresh @128ms", fmt.Sprintf("%.1f%%", wa.FracNeedingFastRefresh128*100), "5.0%")
	return enc.Table(t)
}
