package cli

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/service"
)

// StreamServiceTicket's tail guarantee: the final round's progress event
// is always rendered (latest-wins may drop intermediate rounds only —
// the stream closes after the last event, before the result is
// delivered). Repeated runs shake the scheduling race out.
func TestStreamServiceTicketRendersFinalRound(t *testing.T) {
	db := parser.MustParseDatabase(`e(a, b).`)
	rules := parser.MustParseRules(`e(X, Y) -> ∃Z e(Y, Z).`)
	for i := 0; i < 25; i++ {
		svc := service.New(service.Config{Workers: 1, QueueBound: 1, Cache: compile.NewCache(0)})
		tk, err := svc.SubmitChase(context.Background(), service.ChaseRequest{
			Name:      "walk",
			Database:  service.Payload{Instance: db},
			Ontology:  service.OntologyRef{Set: rules},
			MaxRounds: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r := StreamServiceTicket(&buf, "tool", tk)
		svc.Close()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Fatal("no progress lines rendered")
		}
		want := fmt.Sprintf("tool: stream round=%d atoms=%d nulls=%d",
			r.Chase.Stats.Rounds, r.Chase.Stats.Atoms, r.Chase.Stats.Nulls)
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, want) {
			t.Fatalf("run %d: last rendered line %q, want the final round %q", i, last, want)
		}
	}
}

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCombinedProgram(t *testing.T) {
	path := write(t, "prog.dlgp", `
		r(a, b).
		r(X, Y) -> ∃Z r(Y, Z).
	`)
	db, rules, err := LoadInput("", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || rules.Len() != 1 {
		t.Fatalf("db=%d rules=%d", db.Len(), rules.Len())
	}
}

func TestLoadSplitFiles(t *testing.T) {
	data := write(t, "db.dlgp", `r(a, b).`)
	rules := write(t, "rules.dlgp", `r(X, Y) -> p(X).`)
	db, set, err := LoadInput(data, rules, "")
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || set.Len() != 1 {
		t.Fatalf("db=%d rules=%d", db.Len(), set.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := LoadInput("", "", ""); err == nil || !strings.Contains(err.Error(), "provide") {
		t.Fatalf("missing-input error expected, got %v", err)
	}
	if _, _, err := LoadInput("", "", "/nonexistent/prog"); err == nil {
		t.Fatal("missing file must error")
	}
	data := write(t, "db.dlgp", `r(a, b). r(X,Y) -> p(X).`)
	rules := write(t, "rules.dlgp", `r(X, Y) -> p(X).`)
	if _, _, err := LoadInput(data, rules, ""); err == nil {
		t.Fatal("rules in the data file must be rejected")
	}
	badRules := write(t, "bad.dlgp", `r(a, b).`)
	if _, _, err := LoadInput(write(t, "d.dlgp", `r(a,b).`), badRules, ""); err == nil {
		t.Fatal("facts in the rules file must be rejected")
	}
}
