package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/obs"
)

// TestCorpusMatchesGoldens pins the scheduler's behaviour across changes:
// every bundled scenario must replay to exactly the incident record and
// decision-journal JSONL committed under testdata/. The replay-twice gates
// (TestCorpusReplaysByteIdentical, make scenario-smoke and journal-smoke)
// compare two runs of one build; this test compares against committed
// bytes, so it also catches a change that moves a decision, a cache
// lookup or a journal byte on the bundled scenarios.
//
// The goldens are regenerated, only for a change that is meant to alter
// scheduler decisions, from the repository root with:
//
//	for f in scenarios/*.json; do b=$(basename $f .json); \
//	  go run ./cmd/pandia replay -q -o internal/scenario/testdata/$b.record.json \
//	    -journal internal/scenario/testdata/$b.journal.jsonl $f; done
func TestCorpusMatchesGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no bundled scenarios")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			record, err := res.Record.Encode()
			if err != nil {
				t.Fatal(err)
			}
			var journal bytes.Buffer
			if err := obs.WriteJournalJSONL(&journal, res.Record.Journal); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", name+".record.json"), record)
			compareGolden(t, filepath.Join("testdata", name+".journal.jsonl"), journal.Bytes())
		})
	}
}

// compareGolden fails with the first differing line of got against the
// golden file.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", golden, len(gl), len(wl))
}
