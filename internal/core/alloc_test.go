package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/raceflag"
)

// matrixAllocBudget is the allocation count of one NewMatrixFromStats on
// the n=12 chain below (evaluators, their NIX geometry and section rows,
// the shared per-level tables and the matrix arrays). Pricing a cell must
// not allocate beyond its evaluator's construction.
const matrixAllocBudget = 1711

func TestMatrixFromStatsAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ps, err := experiments.ChainStats(12, 50000, 5000, 3, model.Load{Alpha: 0.3, Beta: 0.1, Gamma: 0.1}, model.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.NewMatrixFromStats(ps, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > matrixAllocBudget {
		t.Errorf("NewMatrixFromStats allocated %.0f times per matrix, budget %d", allocs, matrixAllocBudget)
	}
}
