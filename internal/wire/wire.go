// Package wire is the portable binary codec for instances: a snapshot of
// a whole atom set, encoded so that a fresh process — with its own empty
// symbol table — decodes an instance that is byte-identical to the
// original under every cross-process identity the system has:
// CanonicalKey, insertion order (and hence semi-naive delta behavior),
// and null depths. It is the database half of the ROADMAP's
// distributed-sharding wire format; the ontology half is
// internal/compile's canonical fingerprint, and internal/service composes
// the two into fingerprint-addressed job submission.
//
// # Identity and the symbol manifest
//
// The process-local data plane addresses terms and predicates by dense
// int32 ids handed out in interning order, so ids are meaningless outside
// the process that assigned them. An encoding therefore never contains a
// symbol-table id. Instead, every snapshot carries a symbol manifest —
// the distinct predicates and terms of its atoms, listed in order of
// first occurrence in the encoded atom sequence — and the atom section
// refers to symbols by manifest index. Terms appear in the manifest under
// their portable identity: constants and fresh terms by value, nulls by
// (factory id, depth) — the factory id is the null's identity, which
// Term.Key, Instance.CanonicalKey and its symbol id all derive from — and
// foreign term kinds by their
// Key and rendering, carried opaquely. First-occurrence order makes the
// encoding a pure function of the instance's ordered atom sequence: two
// equal instances encode byte-identically no matter which process, symbol
// table, or null factory produced them, and encode→decode→encode is a
// fixpoint (FuzzWireRoundTrip pins both down).
//
// Neither direction keeps a Go map. The encoder numbers interned predicate
// and term ids in logic.Numbering tables, whose first-occurrence numbers
// are the manifest indexes. The decoder checks a manifest's null
// declarations in another Numbering, builds the snapshot's atoms over one
// exactly sized array each of headers, id tuples and argument slices
// (logic.NewAtomsFromIDs) and indexes them in bulk (logic.NewDatabase).
// Each decode resolves null identity within its one section, through a
// null factory private to the call: no decoder state outlives it.
//
// # Wire format
//
// The encoding is written and read through internal/codec: all integers
// are unsigned varints, except fresh-term values, which are zigzag-signed;
// strings are length-prefixed. Layout:
//
//	magic "CW", kind byte 'S' (snapshot), version varint (1)
//	predicate count; per predicate: name, arity
//	term count; per term: tag byte + payload
//	    'c' constant: value
//	    'f' fresh:    zigzag varint
//	    'n' null:     factory id varint, depth varint
//	    'v' variable: name (instances are normally ground; totality)
//	    'o' foreign:  identity key, rendering
//	atom count; per atom: predicate index, then arity term indexes
package wire

import (
	"errors"

	"repro/internal/codec"
	"repro/internal/logic"
)

// Version is the codec version this package encodes (and the only one it
// decodes).
const Version = 1

// ErrCorrupt reports an encoding this package cannot decode: bad magic,
// an unknown kind or version, truncated sections, out-of-range indexes,
// or a manifest record that violates the codec's invariants. It wraps the
// specific defect.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// kindSnapshot is the header's kind byte, the one payload form.
const kindSnapshot = 'S'

// opaque carries a foreign term kind across the wire: a term defined
// outside internal/logic survives encoding as its identity key plus its
// rendering, which is all the data plane ever derives from it. Decoded
// opaque terms intern through the symbol table's foreign-key path, so
// they compare equal (by id and by Key) to the original term kind.
type opaque struct{ key, str string }

// Key implements logic.Term.
func (o opaque) Key() string { return o.key }

func (o opaque) String() string { return o.str }

// builtinKeyPrefix reports whether the key belongs to one of logic's
// built-in term kinds. Encoders never emit such keys under the foreign
// tag; readTerm rejects them, because interning them as foreign would
// create a second symbol id for an existing identity key.
func builtinKeyPrefix(key string) bool {
	if len(key) < 2 || key[1] != 0 {
		return false
	}
	switch key[0] {
	case 'c', 'n', 'v', 'f':
		return true
	}
	return false
}

// EncodeSnapshot encodes the full instance. The result is a pure function
// of the instance's ordered atom sequence (no process-local state leaks
// in), so equal instances encode byte-identically across processes.
func EncodeSnapshot(in *logic.Instance) []byte {
	w := codec.NewWriter(64 + 16*in.Len())
	writeHeader(w)
	writeAtoms(w, in.Atoms())
	return w.Bytes()
}

func writeHeader(w *codec.Writer) {
	w.Raw([]byte{'C', 'W', kindSnapshot})
	w.Uint(Version)
}

// writeAtoms writes the symbol manifest (first-occurrence order) followed
// by the atom section. The atom section's references — per atom, the
// predicate's manifest index, then its terms' — are gathered in one slice,
// sized up front from the atoms' arities, while the manifest is built.
func writeAtoms(w *codec.Writer, atoms []*logic.Atom) {
	refCount := len(atoms)
	for _, a := range atoms {
		refCount += len(a.Args)
	}
	var (
		preds   []logic.Predicate
		predIdx logic.Numbering // interned predicate id -> manifest index
		terms   []logic.Term
		termIdx logic.Numbering // interned term id -> manifest index
		refs    = make([]int32, 0, refCount)
	)
	for _, a := range atoms {
		pi, fresh := predIdx.Number(a.PredID())
		if fresh {
			preds = append(preds, a.Pred)
		}
		refs = append(refs, pi)
		for i, t := range a.Args {
			ti, fresh := termIdx.Number(a.ArgID(i))
			if fresh {
				terms = append(terms, t)
			}
			refs = append(refs, ti)
		}
	}
	w.Uint(uint64(len(preds)))
	for _, p := range preds {
		w.Str(p.Name)
		w.Uint(uint64(p.Arity))
	}
	w.Uint(uint64(len(terms)))
	for _, t := range terms {
		appendTerm(w, t)
	}
	w.Uint(uint64(len(atoms)))
	for _, r := range refs {
		w.Uint(uint64(r))
	}
}

// appendTerm writes one manifest term record: the tag byte and its
// payload (see the package doc's layout). Nulls are written under their
// portable identity, (factory id, depth).
func appendTerm(w *codec.Writer, t logic.Term) {
	switch x := t.(type) {
	case logic.Constant:
		w.Byte('c')
		w.Str(string(x))
	case logic.Fresh:
		w.Byte('f')
		w.Int(int64(x))
	case *logic.Null:
		w.Byte('n')
		w.Uint(uint64(x.ID()))
		w.Uint(uint64(x.Depth()))
	case logic.Variable:
		// Instances are normally ground, but the codec is total: a
		// variable must not fall into the foreign branch, whose built-in
		// "v\x00" key readTerm categorically rejects.
		w.Byte('v')
		w.Str(string(x))
	default:
		w.Byte('o')
		w.Str(t.Key())
		w.Str(t.String())
	}
}

// readTerm reads one record written by appendTerm and builds its term. A
// null has no term outside its section, so for a null record readTerm
// returns a nil term and the null's portable identity: the factory id and
// depth the caller checks against the section's other nulls. Its errors
// wrap the reader's sentinel: an unknown tag, a truncated payload, a null
// id outside [0, logic.NullIDs), or a foreign record claiming a built-in
// identity key (interning it as foreign would mint a second symbol id for
// an existing identity).
func readTerm(r *codec.Reader) (t logic.Term, nullID, depth int, err error) {
	tag, err := r.Byte("term tag")
	if err != nil {
		return nil, 0, 0, err
	}
	var s, s2 string
	switch tag {
	case 'c':
		s, err = r.Str("constant")
		t = logic.Constant(s)
	case 'f':
		var v int
		v, err = r.Int("fresh value")
		t = logic.Fresh(v)
	case 'n':
		if nullID, err = r.Value("null id"); err == nil && nullID >= logic.NullIDs {
			err = r.Errorf("null id %d outside [0, 2^30)", nullID)
		}
		if err == nil {
			depth, err = r.Value("null depth")
		}
	case 'v':
		s, err = r.Str("variable")
		t = logic.Variable(s)
	case 'o':
		if s, err = r.Str("foreign key"); err == nil {
			s2, err = r.Str("foreign rendering")
		}
		if err == nil && builtinKeyPrefix(s) {
			err = r.Errorf("foreign term with built-in identity key %q", s)
		}
		t = opaque{key: s, str: s2}
	default:
		err = r.Errorf("unknown term tag %q", tag)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return t, nullID, depth, nil
}

// DecodeSnapshot decodes a snapshot encoding into a fresh instance. The
// snapshot's nulls are created in a null factory private to the call, so
// every decode stands alone: a null is resolved only against the other
// declarations of its own manifest. A failed decode returns ErrCorrupt
// wrapping the defect and leaves the symbol table as it was (see
// section).
func DecodeSnapshot(data []byte) (*logic.Instance, error) {
	r := codec.NewReader(data, ErrCorrupt)
	if err := readHeader(r); err != nil {
		return nil, err
	}
	atoms, err := section(r)
	if err != nil {
		return nil, err
	}
	return logic.NewDatabase(atoms...), nil
}

// nullDecl is a manifest null awaiting materialization: the manifest
// index it fills, its portable identity, and the number of its id among
// the section's distinct null ids.
type nullDecl struct{ term, id, depth, num int32 }

// section decodes one manifest+atoms section into its atoms, in order.
// Decoding is parse-then-materialize: the whole encoding is parsed and
// validated — index ranges, tags, null depths, trailing bytes — before a
// single symbol is interned or null created, so corrupt input spends no
// symbol id. Parsing builds the non-null terms, which interns nothing, and
// only records the nulls; symbols are then interned once per manifest
// entry, not once per occurrence.
func section(r *codec.Reader) ([]*logic.Atom, error) {
	npreds, err := r.Len("predicate count")
	if err != nil {
		return nil, err
	}
	preds := make([]logic.Predicate, npreds)
	maxArity := 0
	for i := range preds {
		name, err := r.Str("predicate name")
		if err != nil {
			return nil, err
		}
		arity, err := r.Value("predicate arity")
		if err != nil {
			return nil, err
		}
		preds[i] = logic.Predicate{Name: name, Arity: arity}
		maxArity = max(maxArity, arity)
	}
	nterms, err := r.Len("term count")
	if err != nil {
		return nil, err
	}
	terms := make([]logic.Term, nterms)
	var nulls []nullDecl
	for i := range terms {
		t, id, depth, err := readTerm(r)
		if err != nil {
			return nil, err
		}
		if t != nil {
			terms[i] = t
			continue
		}
		nulls = append(nulls, nullDecl{term: int32(i), id: int32(id), depth: int32(depth)})
	}
	// A null is one term at one depth. Accepting a second depth would
	// silently merge two declared terms into the first one.
	var nullIDs logic.Numbering // the section's distinct null ids
	nullIDs.Grow(len(nulls))
	depths := make([]int32, 0, len(nulls)) // number in nullIDs -> declared depth
	for i, n := range nulls {
		j, fresh := nullIDs.Number(n.id)
		if fresh {
			depths = append(depths, n.depth)
		} else if depths[j] != n.depth {
			return nil, r.Errorf("null %d declared at depths %d and %d", n.id, depths[j], n.depth)
		}
		nulls[i].num = j
	}
	natoms, err := r.Len("atom count")
	if err != nil {
		return nil, err
	}
	atomPreds := make([]int32, natoms)
	// Every atom costs a predicate index byte and every argument at least
	// one more, so the remaining input bounds the flat argument array.
	args := make([]int32, 0, min(natoms*maxArity, r.Remaining()-natoms))
	for ai := range atomPreds {
		pi, err := r.Value("atom predicate index")
		if err != nil {
			return nil, err
		}
		if pi >= len(preds) {
			return nil, r.Errorf("atom %d references predicate %d of %d", ai, pi, len(preds))
		}
		arity := preds[pi].Arity
		if arity > r.Remaining() {
			return nil, r.Errorf("truncated atom %d", ai)
		}
		for range arity {
			ti, err := r.Value("atom term index")
			if err != nil {
				return nil, err
			}
			if ti >= len(terms) {
				return nil, r.Errorf("atom %d references term %d of %d", ai, ti, len(terms))
			}
			args = append(args, int32(ti))
		}
		atomPreds[ai] = int32(pi)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Fully validated: materialize. Nothing below can fail. Each distinct
	// null id makes one null.
	factory := logic.NewNullFactory()
	made := make([]*logic.Null, len(depths))
	for _, n := range nulls {
		if made[n.num] == nil {
			made[n.num] = factory.NullAt(int(n.id), int(n.depth))
		}
		terms[n.term] = made[n.num]
	}
	termIDs := make([]int32, len(terms))
	for i, t := range terms {
		termIDs[i] = logic.IDOf(t)
	}
	predIDs := make([]int32, len(preds))
	for i, p := range preds {
		predIDs[i] = logic.PredIDOf(p)
	}
	atomArgs := make([]logic.Term, len(args))
	atomIDs := make([]int32, len(args))
	for k, ti := range args {
		atomArgs[k], atomIDs[k] = terms[ti], termIDs[ti]
	}
	return logic.NewAtomsFromIDs(preds, predIDs, atomPreds, atomArgs, atomIDs), nil
}

func readHeader(r *codec.Reader) error {
	magic, err := r.Raw(3, "header")
	if err != nil || magic[0] != 'C' || magic[1] != 'W' {
		return r.Errorf("bad magic")
	}
	if magic[2] != kindSnapshot {
		return r.Errorf("kind %q, want %q", magic[2], kindSnapshot)
	}
	v, err := r.Value("version")
	if err != nil {
		return err
	}
	if v != Version {
		return r.Errorf("version %d, want %d", v, Version)
	}
	return nil
}
