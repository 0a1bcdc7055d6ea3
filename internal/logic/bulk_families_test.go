package logic_test

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
	"repro/internal/logic"
)

// TestNewDatabaseMatchesAddOnFamilies runs the bulk-versus-incremental
// index check over two chase results with nulls: University(20), the
// shallow data-heavy shape the codec decodes most, and the guarded
// GLower(1,1,1), deep and of mixed arities. The further Adds are a
// second University's result, whose atoms partly repeat the first's.
func TestNewDatabaseMatchesAddOnFamilies(t *testing.T) {
	run := func(w families.Workload) []*logic.Atom {
		res := chase.Run(w.Database, w.Sigma, chase.Options{})
		if !res.Terminated {
			t.Fatalf("%s: chase did not terminate", w.Name)
		}
		return res.Instance.Atoms()
	}
	more := run(families.University(5, 2))
	for _, w := range []families.Workload{families.University(20, 1), families.GLower(1, 1, 1)} {
		t.Run(w.Name, func(t *testing.T) {
			logic.CheckBulkMatchesAdd(t, run(w), more[:100])
		})
	}
}
