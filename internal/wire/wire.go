// Package wire is the portable binary codec for instances: snapshots of a
// whole atom set and per-round deltas (the atoms appended since a known
// prefix), encoded so that a fresh process — with its own empty symbol
// table — decodes an instance that is byte-identical to the original
// under every cross-process identity the system has: CanonicalKey,
// insertion order (and hence semi-naive delta behavior), and null
// depths. It is the database half of the ROADMAP's distributed-sharding
// wire format; the ontology half is internal/compile's canonical
// fingerprint, and internal/service composes the two into
// fingerprint-addressed job submission.
//
// # Identity and the symbol manifest
//
// The process-local data plane addresses terms and predicates by dense
// int32 ids handed out in interning order, so ids are meaningless outside
// the process that assigned them. An encoding therefore never contains a
// symbol-table id. Instead, every snapshot and delta carries a symbol
// manifest — the distinct predicates and terms of its atoms, listed in
// order of first occurrence in the encoded atom sequence — and the atom
// section refers to symbols by manifest index. Terms appear in the
// manifest under their portable identity: constants and fresh terms by
// value, nulls by (factory id, depth) — the factory-local id is exactly
// what Term.Key and hence Instance.CanonicalKey expose — and foreign term
// kinds by their Key and rendering, carried opaquely. First-occurrence
// order makes the encoding a pure function of the instance's ordered atom
// sequence: two equal instances encode byte-identically no matter which
// process, symbol table, or null factory produced them, and
// encode→decode→encode is a fixpoint (FuzzWireRoundTrip pins both down).
//
// # Deltas
//
// A delta is a snapshot of a suffix: the atoms with insertion sequence >=
// some base length, plus that base length in the header. Deltas are
// self-contained (their manifest re-lists every symbol they touch), but
// null identity must be resolved against the nulls of the base snapshot
// and earlier deltas, so decoding a snapshot+delta stream goes through
// one Decoder, which owns the stream's NullFactory. Applying a delta
// whose base length does not match the decoded instance fails with
// ErrDeltaMismatch rather than silently misaligning the rounds.
//
// # Wire format
//
// The encoding is written and read through internal/codec: all integers
// are unsigned varints, except fresh-term values, which are zigzag-signed;
// strings are length-prefixed. Layout:
//
//	magic "CW", kind byte ('S' snapshot, 'D' delta), version varint (1)
//	delta only: base varint (required instance length before applying)
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
	"fmt"

	"repro/internal/codec"
	"repro/internal/logic"
)

// Version is the codec version this package encodes (and the only one it
// decodes).
const Version = 1

var (
	// ErrCorrupt reports an encoding this package cannot decode: bad
	// magic, unknown version, truncated sections, out-of-range indexes,
	// or a manifest record that violates the codec's invariants. It wraps
	// the specific defect.
	ErrCorrupt = errors.New("wire: corrupt encoding")
	// ErrDeltaMismatch reports a delta whose recorded base length does
	// not match the instance it is being applied to.
	ErrDeltaMismatch = errors.New("wire: delta base does not match the decoded instance")
)

const (
	kindSnapshot = 'S'
	kindDelta    = 'D'
)

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
// tag; ReadTerm rejects them, because interning them as foreign would
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
	writeHeader(w, kindSnapshot)
	writeAtoms(w, in.Atoms())
	meterEncoded(len(w.Bytes()))
	return w.Bytes()
}

// EncodeDelta encodes the atoms with insertion sequence >= from — one
// semi-naive round's delta when from is the previous round's instance
// length — against a base of length from.
func EncodeDelta(in *logic.Instance, from int) []byte {
	if from < 0 {
		from = 0
	}
	all := in.Atoms()
	if from > len(all) {
		from = len(all)
	}
	w := codec.NewWriter(64 + 16*(len(all)-from))
	writeHeader(w, kindDelta)
	w.Uint(uint64(from))
	writeAtoms(w, all[from:])
	meterEncoded(len(w.Bytes()))
	return w.Bytes()
}

func writeHeader(w *codec.Writer, kind byte) {
	w.Raw([]byte{'C', 'W', kind})
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
		predIdx = make(map[int32]int32) // interned predicate id -> manifest index
		terms   []logic.Term
		termIdx = make(map[int32]int32) // interned term id -> manifest index
		refs    = make([]int32, 0, refCount)
	)
	for _, a := range atoms {
		pid := a.PredID()
		pi, ok := predIdx[pid]
		if !ok {
			pi = int32(len(preds))
			predIdx[pid] = pi
			preds = append(preds, a.Pred)
		}
		refs = append(refs, pi)
		for i := range a.Args {
			id := a.ArgID(i)
			ti, ok := termIdx[id]
			if !ok {
				ti = int32(len(terms))
				termIdx[id] = ti
				terms = append(terms, a.Args[i])
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
		AppendTerm(w, t)
	}
	w.Uint(uint64(len(atoms)))
	for _, r := range refs {
		w.Uint(uint64(r))
	}
}

// AppendTerm writes one manifest term record: the tag byte and its
// payload (see the package doc's layout). Nulls are written under their
// portable identity, (factory id, depth); internal/checkpoint's fired-key
// manifest uses the same records.
func AppendTerm(w *codec.Writer, t logic.Term) {
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
		// "v\x00" key ReadTerm categorically rejects.
		w.Byte('v')
		w.Str(string(x))
	default:
		w.Byte('o')
		w.Str(t.Key())
		w.Str(t.String())
	}
}

// TermRecord is one parsed manifest term record, not yet a term: nulls
// need the decoding stream's identity to resolve, so Null hands their
// portable identity to the caller and Term builds every other kind.
type TermRecord struct {
	tag       byte
	str, str2 string
	a, b      int
}

// ReadTerm reads one record written by AppendTerm. Its errors wrap the
// reader's sentinel: an unknown tag, a truncated payload, or a foreign
// record claiming a built-in identity key (interning it as foreign would
// mint a second symbol id for an existing identity).
func ReadTerm(r *codec.Reader) (TermRecord, error) {
	var (
		rec TermRecord
		err error
	)
	if rec.tag, err = r.Byte("term tag"); err != nil {
		return rec, err
	}
	switch rec.tag {
	case 'c':
		rec.str, err = r.Str("constant")
	case 'f':
		rec.a, err = r.Int("fresh value")
	case 'n':
		if rec.a, err = r.Value("null id"); err == nil {
			rec.b, err = r.Value("null depth")
		}
	case 'v':
		rec.str, err = r.Str("variable")
	case 'o':
		if rec.str, err = r.Str("foreign key"); err == nil {
			rec.str2, err = r.Str("foreign rendering")
		}
		if err == nil && builtinKeyPrefix(rec.str) {
			err = r.Errorf("foreign term with built-in identity key %q", rec.str)
		}
	default:
		err = r.Errorf("unknown term tag %q", rec.tag)
	}
	return rec, err
}

// Null reports whether the record is a null and, if so, its portable
// identity: the factory id and depth the caller resolves against its
// stream's nulls.
func (rec TermRecord) Null() (id, depth int, ok bool) {
	return rec.a, rec.b, rec.tag == 'n'
}

// Term builds the record's term. A null record has no term outside its
// stream, so Term returns nil for one; resolve it through Null.
func (rec TermRecord) Term() logic.Term {
	switch rec.tag {
	case 'c':
		return logic.Constant(rec.str)
	case 'f':
		return logic.Fresh(rec.a)
	case 'v':
		return logic.Variable(rec.str)
	case 'o':
		return opaque{key: rec.str, str: rec.str2}
	}
	return nil
}

// Decoder decodes one snapshot and any number of subsequent deltas into a
// single instance, resolving null identity across the whole stream
// through one factory. A Decoder is single-use and not safe for
// concurrent use.
//
// A decode error poisons the decoder: every later Snapshot or Apply call
// fails with an error wrapping both ErrCorrupt and the original defect,
// and Err reports it. Section decoding is atomic (parse-then-materialize,
// see section), so the already-decoded instance is still exactly the
// pre-error stream prefix — Instance remains valid for reading — but the
// stream itself is unusable: a caller that fed one corrupt frame has lost
// sync, and silently accepting the next frame would splice rounds across
// the gap. Checkpoint loading composes snapshot + delta + trigger
// sections on one decoder and relies on this latch.
type Decoder struct {
	nulls *logic.NullFactory
	arena logic.AtomArena // the stream's atoms, owned by the decoded instance
	inst  *logic.Instance
	err   error // first decode error; poisons all later calls
}

// NewDecoder returns a decoder for one snapshot+deltas stream.
func NewDecoder() *Decoder {
	return &Decoder{nulls: logic.NewNullFactory()}
}

// Instance returns the instance decoded so far (nil before Snapshot).
func (d *Decoder) Instance() *logic.Instance { return d.inst }

// Err returns the error that poisoned the decoder, or nil while the
// stream is still healthy.
func (d *Decoder) Err() error { return d.err }

// poison latches the stream's first decode error and returns it. Misuse
// errors (snapshot-after-snapshot, delta-before-snapshot, mismatched
// delta base) poison too: each means the caller's framing is out of step
// with the stream, after which no later frame can be trusted to land
// where the caller thinks it does.
func (d *Decoder) poison(err error) error {
	if d.err == nil {
		d.err = err
	}
	return err
}

// poisoned reports the standing error of a dead stream, wrapping
// ErrCorrupt so callers matching the usual decode-failure sentinel catch
// it without knowing about the latch.
func (d *Decoder) poisoned() error {
	return fmt.Errorf("%w: decoder poisoned by earlier error: %w", ErrCorrupt, d.err)
}

// Snapshot decodes a snapshot encoding into a fresh instance. It must be
// the stream's first call and may be made only once.
func (d *Decoder) Snapshot(data []byte) (*logic.Instance, error) {
	if d.err != nil {
		return nil, d.poisoned()
	}
	if d.inst != nil {
		return nil, d.poison(fmt.Errorf("%w: decoder already holds a snapshot", ErrCorrupt))
	}
	r := codec.NewReader(data, ErrCorrupt)
	if err := readHeader(r, kindSnapshot); err != nil {
		return nil, d.poison(err)
	}
	atoms, err := d.section(r)
	if err != nil {
		return nil, d.poison(err)
	}
	meterDecoded(len(data))
	d.inst = logic.NewDatabase(atoms...)
	return d.inst, nil
}

// Apply decodes a delta encoding and appends its atoms to the decoded
// instance, returning the number of atoms added. The delta's recorded
// base length must equal the instance's current length.
//
// An error poisons the decoder (see Decoder): the instance keeps the
// atoms of every frame that succeeded, nothing from the failed one, and
// all later Snapshot/Apply calls refuse with an error wrapping
// ErrCorrupt and the original defect.
func (d *Decoder) Apply(data []byte) (int, error) {
	if d.err != nil {
		return 0, d.poisoned()
	}
	if d.inst == nil {
		return 0, d.poison(fmt.Errorf("%w: delta applied before any snapshot", ErrCorrupt))
	}
	r := codec.NewReader(data, ErrCorrupt)
	if err := readHeader(r, kindDelta); err != nil {
		return 0, d.poison(err)
	}
	base, err := r.Value("delta base")
	if err != nil {
		return 0, d.poison(err)
	}
	if base != d.inst.Len() {
		return 0, d.poison(fmt.Errorf("%w: delta base %d, instance holds %d atoms", ErrDeltaMismatch, base, d.inst.Len()))
	}
	atoms, err := d.section(r)
	if err != nil {
		return 0, d.poison(err)
	}
	meterDecoded(len(data))
	return d.inst.AddAll(atoms), nil
}

// DecodeSnapshot decodes a self-contained snapshot with a private
// decoder; use a Decoder directly when deltas will follow.
func DecodeSnapshot(data []byte) (*logic.Instance, error) {
	return NewDecoder().Snapshot(data)
}

// section decodes one manifest+atoms section into its atoms, in order.
// Decoding is parse-then-materialize: the whole encoding is parsed and
// validated — index ranges, tags, null depths, trailing bytes — before a
// single null is interned or atom built, so corrupt input leaves both the
// stream's instance and its null factory exactly as they were (Apply's
// atomicity rests on this). Symbols are interned once per manifest entry,
// not once per occurrence, and atoms are carved from the stream's arena.
func (d *Decoder) section(r *codec.Reader) ([]*logic.Atom, error) {
	npreds, err := r.Len("predicate count")
	if err != nil {
		return nil, err
	}
	preds := make([]logic.Predicate, npreds)
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
	}
	nterms, err := r.Len("term count")
	if err != nil {
		return nil, err
	}
	recs := make([]TermRecord, nterms)
	var depths map[int]int // null id -> depth declared in this section
	for i := range recs {
		rec, err := ReadTerm(r)
		if err != nil {
			return nil, err
		}
		if id, depth, ok := rec.Null(); ok {
			// A null is one term at one depth. Accepting a second depth
			// would silently merge two declared terms into the first one.
			if n := d.nulls.LookupNullAt(id); n != nil && n.Depth() != depth {
				return nil, r.Errorf("null %d declared at depth %d, the stream has it at depth %d", id, depth, n.Depth())
			}
			if depths == nil {
				depths = make(map[int]int)
			}
			if prev, ok := depths[id]; ok && prev != depth {
				return nil, r.Errorf("null %d declared at depths %d and %d", id, prev, depth)
			}
			depths[id] = depth
		}
		recs[i] = rec
	}
	natoms, err := r.Len("atom count")
	if err != nil {
		return nil, err
	}
	atomPreds := make([]int32, natoms)
	// Every atom costs a predicate index byte and every argument at least
	// one more, so the remaining input bounds the flat argument array.
	args := make([]int32, 0, r.Remaining()-natoms)
	maxArity := 0
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
			if ti >= len(recs) {
				return nil, r.Errorf("atom %d references term %d of %d", ai, ti, len(recs))
			}
			args = append(args, int32(ti))
		}
		atomPreds[ai] = int32(pi)
		maxArity = max(maxArity, arity)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Fully validated: materialize. Nothing below can fail.
	terms := make([]logic.Term, len(recs))
	termIDs := make([]int32, len(recs))
	for i, rec := range recs {
		if id, depth, ok := rec.Null(); ok {
			terms[i] = d.nulls.NullAt(id, depth)
		} else {
			terms[i] = rec.Term()
		}
		termIDs[i] = logic.IDOf(terms[i])
	}
	predIDs := make([]int32, len(preds))
	for i, p := range preds {
		predIDs[i] = logic.PredIDOf(p)
	}
	atoms := make([]*logic.Atom, natoms)
	atomArgs := make([]logic.Term, maxArity)
	atomIDs := make([]int32, maxArity)
	for ai, pi := range atomPreds {
		p := preds[pi]
		for i, ti := range args[:p.Arity] {
			atomArgs[i], atomIDs[i] = terms[ti], termIDs[ti]
		}
		args = args[p.Arity:]
		atoms[ai] = d.arena.NewAtomFromIDs(p, atomArgs[:p.Arity], predIDs[pi], atomIDs[:p.Arity])
	}
	return atoms, nil
}

func readHeader(r *codec.Reader, kind byte) error {
	magic, err := r.Raw(3, "header")
	if err != nil || magic[0] != 'C' || magic[1] != 'W' {
		return r.Errorf("bad magic")
	}
	if magic[2] != kind {
		return r.Errorf("kind %q, want %q", magic[2], kind)
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
