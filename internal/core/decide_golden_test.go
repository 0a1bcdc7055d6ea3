package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/families"
	"repro/internal/tgds"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/decide-g.golden instead of comparing")

// TestDecideGGolden pins DecideG's verdicts and certificates, [τN] type
// names included, over a fixed grid: the guarded sets among
// RandomGuarded Σ-seeds 1–40 (the decide-guarded benchmark's shape: 5
// predicates, 6 rules, arity at most 3), each against six RandomDatabase
// inputs of 10+15i facts over 4+3i constants. Any change to the
// linearizer's type discovery order or to the completion shows up here as
// a diff. Regenerate with -update only for an intended change.
func TestDecideGGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("decide-g golden grid skipped in -short mode")
	}
	cfg := families.DefaultRandomConfig()
	cfg.Predicates, cfg.Rules, cfg.MaxArity = 5, 6, 3
	var b strings.Builder
	for seed := int64(1); seed <= 40; seed++ {
		sigma := families.RandomGuarded(rand.New(rand.NewSource(seed)), cfg)
		if sigma.Classify() != tgds.ClassG {
			continue
		}
		for i := range 6 {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			db := families.RandomDatabase(rng, sigma, 10+15*i, 4+3*i)
			v, err := DecideG(db, sigma)
			if err != nil {
				t.Fatalf("Σ-seed %d, database %d: %v", seed, i, err)
			}
			fmt.Fprintf(&b, "seed %d db %d (%d facts): %v\n", seed, i, db.Len(), v)
		}
	}
	path := filepath.Join("testdata", "decide-g.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for k := range min(len(gl), len(wl)) {
			if gl[k] != wl[k] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
