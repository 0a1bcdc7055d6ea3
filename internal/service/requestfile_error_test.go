package service

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// Every path a request file can reference is opened at build time, and
// every referenced payload is parsed: a dangling path or a malformed
// file fails the envelope build loudly instead of producing a request
// that silently lacks what it named.
func TestRequestFileBuildErrors(t *testing.T) {
	dir := t.TempDir()
	abs := writeFile(t, dir, "good.dlgp", "p(a).\np(X) -> q(X).\n")
	writeFile(t, dir, "bad.dlgp", "p(a ->")
	writeFile(t, dir, "rules.dlgp", "p(X) -> q(X).\n")
	writeFile(t, dir, "data.dlgp", "p(a).\n")
	const (
		good      = "good.dlgp"
		bad       = "bad.dlgp"
		goodRules = "rules.dlgp"
		goodData  = "data.dlgp"
	)

	chase := map[string]RequestFile{
		"missing program":  {Program: "nope.dlgp"},
		"bad program":      {Program: bad},
		"missing rules":    {Rules: "nope.dlgp"},
		"bad rules":        {Rules: bad},
		"missing data":     {Rules: goodRules, Data: "nope.dlgp"},
		"bad data":         {Rules: goodRules, Data: bad},
		"no inputs":        {},
		"missing snapshot": {Program: good, Snapshot: "nope.bin"},
		"bad priority":     {Program: good, Priority: "urgent"},
		"bad engine":       {Program: good, Engine: "turbo"},
		// The shared resolver confines every file field to the request
		// directory: absolute paths and ..-escapes are rejected even when
		// the target exists and parses.
		"absolute program":  {Program: abs},
		"escaping program":  {Program: "../good.dlgp"},
		"absolute rules":    {Rules: abs},
		"escaping data":     {Rules: goodRules, Data: filepath.Join("sub", "..", "..", "data.dlgp")},
		"absolute snapshot": {Program: good, Snapshot: abs},
	}
	for name, f := range chase {
		t.Run("chase/"+name, func(t *testing.T) {
			f.dir = dir
			if _, err := f.ChaseRequest(); err == nil {
				t.Fatal("ChaseRequest built; want error")
			}
		})
	}

	decide := map[string]RequestFile{
		"wrong kind":   {Kind: "chase", Program: good},
		"bad priority": {Program: good, Priority: "urgent"},
		"no inputs":    {},
	}
	for name, f := range decide {
		t.Run("decide/"+name, func(t *testing.T) {
			f.Kind = "decide"
			if name == "wrong kind" {
				f.Kind = "chase"
			}
			f.dir = dir
			if _, err := f.DecideRequest(); err == nil {
				t.Fatal("DecideRequest built; want error")
			}
		})
	}

	experiment := map[string]RequestFile{
		"bad priority": {Kind: "experiment", Experiment: "e1", Priority: "urgent"},
		"no id":        {Kind: "experiment"},
	}
	for name, f := range experiment {
		t.Run("experiment/"+name, func(t *testing.T) {
			f.dir = dir
			if _, err := f.ExperimentRequest(); err == nil {
				t.Fatal("ExperimentRequest built; want error")
			}
		})
	}

	writeFile(t, dir, "run.cp", "not a real artifact, but readable")
	const cp = "run.cp"
	resume := map[string]RequestFile{
		"no checkpoint":       {Kind: "resume"},
		"missing checkpoint":  {Kind: "resume", Checkpoint: "nope.cp"},
		"bad priority":        {Kind: "resume", Checkpoint: cp, Priority: "urgent"},
		"missing program":     {Kind: "resume", Checkpoint: cp, Program: "nope.dlgp"},
		"bad program":         {Kind: "resume", Checkpoint: cp, Program: bad},
		"missing rules":       {Kind: "resume", Checkpoint: cp, Rules: "nope.dlgp"},
		"bad rules":           {Kind: "resume", Checkpoint: cp, Rules: bad},
		"missing data":        {Kind: "resume", Checkpoint: cp, Rules: goodRules, Data: "nope.dlgp"},
		"bad data":            {Kind: "resume", Checkpoint: cp, Rules: goodRules, Data: bad},
		"absolute checkpoint": {Kind: "resume", Checkpoint: abs},
		"escaping checkpoint": {Kind: "resume", Checkpoint: "../run.cp"},
	}
	for name, f := range resume {
		t.Run("resume/"+name, func(t *testing.T) {
			f.dir = dir
			if _, err := f.DeltaRequest(); err == nil {
				t.Fatal("DeltaRequest built; want error")
			}
		})
	}

	// A resume file may ship its delta as separate rules + data; the
	// happy path over Data exercises the parse-and-attach branch the
	// rejection table above cannot.
	f := RequestFile{Kind: "resume", Checkpoint: cp, Rules: goodRules, Data: goodData, dir: dir}
	req, err := f.DeltaRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Delta) != 1 || req.Ontology.Set == nil {
		t.Fatalf("DeltaRequest = %+v, want one delta atom and inline rules", req)
	}
}

// RegisterOntology refuses a nil set with a typed bad-request error.
func TestRegisterOntologyNil(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	_, err := s.RegisterOntology(nil)
	var se *Error
	if !errors.As(err, &se) || se.Kind != KindBadRequest {
		t.Fatalf("err = %v, want KindBadRequest", err)
	}
	if !strings.Contains(err.Error(), "nil ontology") {
		t.Fatalf("err = %v, want nil-ontology diagnosis", err)
	}
}
