// Attack study: compare RowHammer attack shapes against one module and show
// how reduced wordline voltage cheapens deployed defenses.
//
// Part 1 mounts single- and double-sided attacks at the same per-aggressor
// budget (the paper uses double-sided attacks because they are the most
// effective against undefended DRAM, §4.2).
//
// Part 2 sizes two reference defenses — PARA's refresh probability and a
// Graphene-style counter table — at nominal VPP and at VPPmin, quantifying
// the complementary benefit of Takeaway 1.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/dramstudy/rhvpp"
)

func main() {
	prof, ok := rhvpp.ModuleByName("B3")
	if !ok {
		log.Fatal("module B3 not in the catalog")
	}
	lab := rhvpp.NewLab(prof)

	// --- Part 1: attack shapes ------------------------------------------
	// Rows vary widely in strength; find this device's weakest row among a
	// few candidates, as an attacker profiling a module would.
	victim, weakest := 0, math.MaxInt
	for _, cand := range []int{100, 120, 140, 160, 180} {
		res, err := lab.CharacterizeRow(cand)
		if err != nil {
			log.Fatal(err)
		}
		if res.HCFirst < weakest {
			victim, weakest = cand, res.HCFirst
		}
	}
	lo, hi, err := lab.Aggressors(victim)
	if err != nil {
		log.Fatal(err)
	}
	budget := weakest * 2
	fmt.Printf("weakest profiled victim: row %d (HCfirst %d), aggressors %d/%d\n",
		victim, weakest, lo, hi)

	ber, err := lab.MeasureBER(victim, budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  double-sided at %d hammers/side: BER %.3e\n", budget, ber)
	fmt.Printf("  (a single-sided attacker needs roughly 3x more activations per flip)\n\n")

	// --- Part 2: defense provisioning vs VPP ----------------------------
	type point struct {
		vpp     float64
		hcFirst int
	}
	var points []point
	for _, vpp := range []float64{rhvpp.VPPNominal, prof.VPPMin} {
		if err := lab.SetVPP(vpp); err != nil {
			log.Fatal(err)
		}
		r, err := lab.CharacterizeRow(victim)
		if err != nil {
			log.Fatal(err)
		}
		points = append(points, point{vpp, r.HCFirst})
	}

	const activationsPerWindow = 1_360_000 // 64ms / ~47ns
	fmt.Println("defense provisioning (PARA target failure 1e-9, Graphene threshold HCfirst/4):")
	for _, pt := range points {
		p, err := rhvpp.PARARequiredP(float64(pt.hcFirst), 1e-9)
		if err != nil {
			log.Fatal(err)
		}
		counters := rhvpp.GrapheneCounters(activationsPerWindow, float64(pt.hcFirst), 4)
		fmt.Printf("  VPP %.1fV: HCfirst %6d -> PARA p = %.2e, Graphene counters = %d\n",
			pt.vpp, pt.hcFirst, p, counters)
	}
	fmt.Println("\nlower VPP -> higher HCfirst -> cheaper defenses (complementary mitigation).")
}
