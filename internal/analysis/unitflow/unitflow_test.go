package unitflow_test

import (
	"testing"

	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/unitflow"
)

func TestUnitflow(t *testing.T) {
	analysistest.Run(t, "testdata", unitflow.Analyzer, "a", "b")
}

// TestUnitflowFamilies runs the suffix-family fixture: mixed operands whose
// units the annotations leave undecided are still compared by family.
func TestUnitflowFamilies(t *testing.T) {
	analysistest.Run(t, "testdata", unitflow.Analyzer, "families")
}
