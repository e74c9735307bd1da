// Package suite assembles the full detlint analyzer family. cmd/detlint
// runs exactly this list; docs/DETERMINISM.md maps each gen-1 analyzer to
// the invariant it guards, and docs/CONTRACTS.md does the same for the
// gen-2 perf- and artifact-path analyzers (hotalloc, sinkerr). The
// shard-protocol contracts (options fingerprint, goroutine results) are
// pinned by runtime tests instead; see docs/CONTRACTS.md.
package suite

import (
	"golang.org/x/tools/go/analysis"

	"github.com/dramstudy/rhvpp/internal/analysis/ctxloop"
	"github.com/dramstudy/rhvpp/internal/analysis/detsource"
	"github.com/dramstudy/rhvpp/internal/analysis/hotalloc"
	"github.com/dramstudy/rhvpp/internal/analysis/maporder"
	"github.com/dramstudy/rhvpp/internal/analysis/sinkerr"
	"github.com/dramstudy/rhvpp/internal/analysis/totalcmp"
)

// All returns the suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxloop.Analyzer,
		detsource.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
		sinkerr.Analyzer,
		totalcmp.Analyzer,
	}
}
