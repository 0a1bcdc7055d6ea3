package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/qos"
	"repro/internal/tgds"
)

// RequestFile is the on-disk JSON form of one request envelope — the
// "chase -request req.json" serving shape: a file a client writes and a
// tool (or a future listener) replays through the service layer. Exactly
// the envelope fields that make sense at rest are representable;
// in-process-only fields (DecideRequest.Progress, ExperimentRequest's
// Stream writer, live instance payloads) are not. Every referenced path
// is resolved against the request file's own directory and confined to
// it: absolute paths and ".."-escapes are rejected across all file
// fields (program, data, rules, snapshot, checkpoint) by one shared
// resolver.
type RequestFile struct {
	// Kind selects the operation: "chase", "decide", "experiment", or
	// "resume" (continue a checkpointed chase over a delta).
	Kind string `json:"kind"`
	// Tenant and Priority ("high", "normal", "low") fill RequestMeta, as
	// does QoS — the serving policy in qos.Parse's grammar ("exact",
	// "learn", "bounded", "anytime:250ms", "anytime:3r", ...).
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	QoS      string `json:"qos,omitempty"`
	// Name labels the job (defaults per operation).
	Name string `json:"name,omitempty"`

	// Program is a combined facts+rules file; alternatively Data and
	// Rules name separate files. Snapshot may replace the facts with a
	// binary wire snapshot.
	Program  string `json:"program,omitempty"`
	Data     string `json:"data,omitempty"`
	Rules    string `json:"rules,omitempty"`
	Snapshot string `json:"snapshot,omitempty"`
	// Checkpoint names a checkpoint artifact for a "resume" request: the
	// chase continues from it, with the file's facts as the base-data
	// delta. Rules are optional — without them the checkpoint's
	// fingerprint resolves through the service registry.
	Checkpoint string `json:"checkpoint,omitempty"`

	// Chase options.
	Engine    string `json:"engine,omitempty"`
	MaxAtoms  int    `json:"maxAtoms,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`

	// Decide options.
	Method  string `json:"method,omitempty"`
	AtomCap int    `json:"atomCap,omitempty"`

	// Experiment options.
	Experiment string `json:"experiment,omitempty"`
	Quick      bool   `json:"quick,omitempty"`

	dir string // directory of the file, for relative path resolution
}

// LoadRequestFile parses a request file. Unknown fields are rejected — a
// misspelled option ("max-atoms" for "maxAtoms") must fail loudly, not
// silently run without the budget the user asked for.
func LoadRequestFile(path string) (*RequestFile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &RequestFile{}
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.dir = filepath.Dir(path)
	return f, nil
}

// resolve maps a referenced path into the request file's directory. One
// resolver serves every file field, and it confines references: a
// request may only name files in or below its own directory, so a
// replayed envelope can never be steered at /etc/passwd-style targets —
// absolute paths and ".."-escapes are rejected with the offending field
// named.
func (f *RequestFile) resolve(field, path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("request names an empty %s path", field)
	}
	if filepath.IsAbs(path) {
		return "", fmt.Errorf("request %s %q: absolute paths escape the request directory", field, path)
	}
	clean := filepath.Clean(path)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("request %s %q: path escapes the request directory", field, path)
	}
	return filepath.Join(f.dir, clean), nil
}

// readRef resolves a referenced path and reads the file it names.
func (f *RequestFile) readRef(field, path string) ([]byte, error) {
	p, err := f.resolve(field, path)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// meta builds the RequestMeta.
func (f *RequestFile) meta() (RequestMeta, error) {
	prio, err := ParsePriority(f.Priority)
	if err != nil {
		return RequestMeta{}, err
	}
	policy, err := qos.Parse(f.QoS)
	if err != nil {
		return RequestMeta{}, err
	}
	return RequestMeta{Tenant: f.Tenant, Priority: prio, QoS: policy}, nil
}

// inputs loads the file's database payload and rule set.
func (f *RequestFile) inputs() (Payload, *tgds.Set, error) {
	var (
		db    *logic.Instance
		rules *tgds.Set
	)
	switch {
	case f.Program != "":
		src, err := f.readRef("program", f.Program)
		if err != nil {
			return Payload{}, nil, err
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			return Payload{}, nil, err
		}
		db, rules = prog.Database, prog.Rules
	case f.Rules != "":
		src, err := f.readRef("rules", f.Rules)
		if err != nil {
			return Payload{}, nil, err
		}
		if rules, err = parser.ParseRules(string(src)); err != nil {
			return Payload{}, nil, err
		}
		if f.Data != "" {
			dsrc, err := f.readRef("data", f.Data)
			if err != nil {
				return Payload{}, nil, err
			}
			if db, err = parser.ParseDatabase(string(dsrc)); err != nil {
				return Payload{}, nil, err
			}
		}
	default:
		return Payload{}, nil, fmt.Errorf("request names no program or rules")
	}
	if f.Snapshot != "" {
		// A wire-encoded instance replaces the parsed facts; the service
		// decodes it at admission.
		snap, err := f.readRef("snapshot", f.Snapshot)
		if err != nil {
			return Payload{}, nil, err
		}
		return Payload{Snapshot: snap}, rules, nil
	}
	if db == nil {
		db = logic.NewInstance()
	}
	return Payload{Instance: db}, rules, nil
}

// ChaseRequest builds the typed envelope of a "chase" request file.
func (f *RequestFile) ChaseRequest() (ChaseRequest, error) {
	if f.Kind != "" && f.Kind != "chase" {
		return ChaseRequest{}, fmt.Errorf("request kind %q, want \"chase\"", f.Kind)
	}
	meta, err := f.meta()
	if err != nil {
		return ChaseRequest{}, err
	}
	variant, err := ParseVariant(f.Engine)
	if err != nil {
		return ChaseRequest{}, err
	}
	db, rules, err := f.inputs()
	if err != nil {
		return ChaseRequest{}, err
	}
	return ChaseRequest{
		Meta:      meta,
		Name:      f.Name,
		Database:  db,
		Ontology:  OntologyRef{Set: rules},
		Variant:   variant,
		MaxAtoms:  f.MaxAtoms,
		MaxRounds: f.MaxRounds,
	}, nil
}

// DeltaRequest builds the typed envelope of a "resume" request file:
// Checkpoint names the artifact, the file's facts (Program facts or
// Data) are the delta, and the rules — when present — pin Σ inline
// (otherwise the checkpoint's fingerprint resolves through the
// registry). Engine is rejected: the variant is pinned by the
// checkpoint. Snapshot is rejected: a resume's base instance is the
// checkpoint, and the delta facts are its only payload.
func (f *RequestFile) DeltaRequest() (DeltaRequest, error) {
	if f.Kind != "resume" {
		return DeltaRequest{}, fmt.Errorf("request kind %q, want \"resume\"", f.Kind)
	}
	meta, err := f.meta()
	if err != nil {
		return DeltaRequest{}, err
	}
	if f.Checkpoint == "" {
		return DeltaRequest{}, fmt.Errorf("resume request names no checkpoint artifact")
	}
	if f.Engine != "" {
		return DeltaRequest{}, fmt.Errorf("resume requests take no engine: the chase variant is pinned by the checkpoint")
	}
	if f.Snapshot != "" {
		return DeltaRequest{}, fmt.Errorf("resume requests take no snapshot: the base instance is the checkpoint, ship new atoms as facts")
	}
	req := DeltaRequest{
		Meta:      meta,
		Name:      f.Name,
		MaxAtoms:  f.MaxAtoms,
		MaxRounds: f.MaxRounds,
	}
	if req.Checkpoint, err = f.readRef("checkpoint", f.Checkpoint); err != nil {
		return DeltaRequest{}, err
	}
	var facts *logic.Instance
	switch {
	case f.Program != "":
		src, err := f.readRef("program", f.Program)
		if err != nil {
			return DeltaRequest{}, err
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			return DeltaRequest{}, err
		}
		facts = prog.Database
		req.Ontology = OntologyRef{Set: prog.Rules}
	case f.Rules != "":
		src, err := f.readRef("rules", f.Rules)
		if err != nil {
			return DeltaRequest{}, err
		}
		rules, err := parser.ParseRules(string(src))
		if err != nil {
			return DeltaRequest{}, err
		}
		req.Ontology = OntologyRef{Set: rules}
	}
	if f.Data != "" {
		src, err := f.readRef("data", f.Data)
		if err != nil {
			return DeltaRequest{}, err
		}
		if facts, err = parser.ParseDatabase(string(src)); err != nil {
			return DeltaRequest{}, err
		}
	}
	if facts != nil {
		req.Delta = facts.Atoms()
	}
	return req, nil
}

// DecideRequest builds the typed envelope of a "decide" request file.
func (f *RequestFile) DecideRequest() (DecideRequest, error) {
	if f.Kind != "" && f.Kind != "decide" {
		return DecideRequest{}, fmt.Errorf("request kind %q, want \"decide\"", f.Kind)
	}
	meta, err := f.meta()
	if err != nil {
		return DecideRequest{}, err
	}
	db, rules, err := f.inputs()
	if err != nil {
		return DecideRequest{}, err
	}
	return DecideRequest{
		Meta:     meta,
		Name:     f.Name,
		Database: db,
		Ontology: OntologyRef{Set: rules},
		Method:   f.Method,
		AtomCap:  f.AtomCap,
	}, nil
}

// ExperimentRequest builds the typed envelope of an "experiment" request
// file.
func (f *RequestFile) ExperimentRequest() (ExperimentRequest, error) {
	if f.Kind != "" && f.Kind != "experiment" {
		return ExperimentRequest{}, fmt.Errorf("request kind %q, want \"experiment\"", f.Kind)
	}
	meta, err := f.meta()
	if err != nil {
		return ExperimentRequest{}, err
	}
	if f.Experiment == "" {
		return ExperimentRequest{}, fmt.Errorf("request names no experiment id")
	}
	return ExperimentRequest{
		Meta:  meta,
		Name:  f.Name,
		ID:    f.Experiment,
		Quick: f.Quick,
	}, nil
}
