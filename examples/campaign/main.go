// Campaign session: regenerate a slice of the paper's evaluation the way the
// study actually ran — one shared characterization campaign, not one sweep
// per figure. Table 3, Figs. 3-6, and the §5 summary below all render from a
// single RowHammer study; the module sweeps inside it run concurrently, and
// ctrl-C cancels cleanly mid-measurement.
//
//	go run ./examples/campaign            # text to stdout
//	go run ./examples/campaign -json      # machine-readable NDJSON
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"

	"github.com/dramstudy/rhvpp"
)

func main() {
	asJSON := flag.Bool("json", false, "emit NDJSON instead of text")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A laptop-scale session over three strongly responding modules, one
	// worker per CPU.
	o := rhvpp.DefaultOptions()
	o.ModuleNames = []string{"B3", "C0", "A8"}
	o.Jobs = runtime.NumCPU()
	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		log.Fatal(err) // e.g. a typo in ModuleNames, rejected up front
	}

	format := rhvpp.FormatText
	if *asJSON {
		format = rhvpp.FormatJSON
	}
	enc, err := rhvpp.NewEncoder(format, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	// Every id below depends on the same underlying study; the hardware is
	// characterized exactly once, on the first Run.
	for _, id := range []string{"table3", "fig3", "fig5", "summary"} {
		e, err := rhvpp.LookupExperiment(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "-- %s: %s (%s)\n", e.ID, e.Title, e.Section)
		if err := c.Run(ctx, id, enc); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "study executions: %v\n", c.StudyRuns())
}
