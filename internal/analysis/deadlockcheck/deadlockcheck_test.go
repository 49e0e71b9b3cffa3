package deadlockcheck_test

import (
	"testing"

	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/deadlockcheck"
)

func TestDeadlockcheckFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", deadlockcheck.Analyzer, "a")
}

// TestDeadlockcheckLocalFindings runs the single-function fixture: re-locks,
// wrong-flavour releases, returns with a lock held and channel operations
// under a lock.
func TestDeadlockcheckLocalFindings(t *testing.T) {
	analysistest.Run(t, "testdata", deadlockcheck.Analyzer, "local")
}
