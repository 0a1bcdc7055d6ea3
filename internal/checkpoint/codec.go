package checkpoint

// The artifact format. All integers are unsigned varints except fresh
// term values (zigzag-signed); strings are length-prefixed. Layout:
//
//	magic "CP", version varint (1)
//	fingerprint: 32 raw bytes (compile.Of)
//	exact digest: 32 raw bytes (ExactDigest)
//	variant varint
//	flags byte (bit 0: terminated)
//	rounds varint
//	next null id varint (factory high-water mark)
//	delta start varint (semi-naive window start)
//	snapshot: length varint + a wire snapshot of the instance
//	fired term manifest: count; per term: tag byte + payload
//	    (tags and payloads exactly as in the wire manifest: 'c'
//	    constant, 'f' fresh, 'n' null as factory id + depth, 'v'
//	    variable, 'o' foreign key + rendering; first-occurrence order
//	    over the fired tuples' term ids)
//	fired tuples: count; per tuple: TGD index varint, id count varint,
//	    then manifest indexes
//	checksum: first 8 bytes of the SHA-256 of everything before it
//
// Like the wire codec, the encoding is a pure function of the
// checkpoint's content: process-local symbol ids never appear (fired
// tuples are re-expressed over the manifest), so equal checkpoints
// encode byte-identically in any process and encode∘decode is a
// fixpoint (FuzzCheckpointRoundTrip pins both down).
//
// Null identity crosses the artifact in two sections — the snapshot and
// the fired manifest — under the same (factory id, depth) portable
// identity, and the decoder resolves fired nulls against the snapshot's:
// every fired-key id came from a matched instance atom, so a fired null
// that does not occur in the snapshot is corrupt. Encoding enforces the
// identity's precondition: two distinct nulls sharing a factory id (as
// decoded instances from independent streams can) would silently merge
// on the wire, so Encode refuses such instances instead of producing an
// artifact that decodes to something else.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/wire"
)

const checksumLen = 8

// Encode serializes the checkpoint. It fails when the checkpoint's terms
// cannot be expressed portably: a fired key referencing a symbol id with
// no registered term, or distinct nulls sharing a factory id (their wire
// identities would collide and decode as one null).
func (c *Checkpoint) Encode() ([]byte, error) {
	if c.State == nil || c.Instance == nil {
		return nil, fmt.Errorf("checkpoint: encode of an incomplete checkpoint")
	}
	// The (factory id -> null) injection the wire identity requires,
	// over every null the artifact mentions: instance atoms first, then
	// fired keys (which should all occur in the instance anyway).
	// Nulls live in their factory, not the process symbol table, so the
	// same sweep also builds the (symbol id -> null) view the fired-key
	// manifest needs — logic.TermOfID cannot resolve a null's id.
	byID := make(map[int]*logic.Null)
	nullOfGID := make(map[int32]*logic.Null)
	checkNull := func(n *logic.Null) error {
		if prev, ok := byID[n.ID()]; ok && prev != n {
			return fmt.Errorf("checkpoint: distinct nulls share factory id %d; the instance is not portable", n.ID())
		}
		byID[n.ID()] = n
		return nil
	}
	for _, a := range c.Instance.Atoms() {
		for i, t := range a.Args {
			if n, ok := t.(*logic.Null); ok {
				if err := checkNull(n); err != nil {
					return nil, err
				}
				nullOfGID[a.ArgID(i)] = n
			}
		}
	}

	e := &encoder{buf: make([]byte, 0, 256+16*c.Instance.Len())}
	e.buf = append(e.buf, 'C', 'P')
	e.uint(Version)
	e.buf = append(e.buf, c.Fingerprint[:]...)
	e.buf = append(e.buf, c.Exact[:]...)
	e.uint(uint64(c.Variant))
	var flags byte
	if c.Terminated {
		flags |= 1
	}
	e.buf = append(e.buf, flags)
	e.uint(uint64(c.Rounds))
	e.uint(uint64(c.State.NextNullID))
	e.uint(uint64(c.State.DeltaStart))
	snap := wire.EncodeSnapshot(c.Instance)
	e.uint(uint64(len(snap)))
	e.buf = append(e.buf, snap...)

	// Fired term manifest in first-occurrence order.
	var (
		terms   []logic.Term
		termIdx = make(map[int32]int)
	)
	for _, tuple := range c.State.Fired {
		if len(tuple) == 0 {
			return nil, fmt.Errorf("checkpoint: empty fired-trigger key")
		}
		for _, id := range tuple[1:] {
			if _, ok := termIdx[id]; ok {
				continue
			}
			var t logic.Term
			if n, ok := nullOfGID[id]; ok {
				t = n
			} else if t = logic.TermOfID(id); t == nil {
				// Every fired-key id came from a matched instance atom, so
				// it is either a null of the instance (resolved above) or a
				// table-registered ground term.
				return nil, fmt.Errorf("checkpoint: fired key references unregistered symbol id %d", id)
			}
			termIdx[id] = len(terms)
			terms = append(terms, t)
		}
	}
	e.uint(uint64(len(terms)))
	for _, t := range terms {
		switch x := t.(type) {
		case logic.Constant:
			e.buf = append(e.buf, 'c')
			e.str(string(x))
		case logic.Fresh:
			e.buf = append(e.buf, 'f')
			e.buf = binary.AppendVarint(e.buf, int64(x))
		case *logic.Null:
			e.buf = append(e.buf, 'n')
			e.uint(uint64(x.ID()))
			e.uint(uint64(x.Depth()))
		case logic.Variable:
			e.buf = append(e.buf, 'v')
			e.str(string(x))
		default:
			e.buf = append(e.buf, 'o')
			e.str(t.Key())
			e.str(t.String())
		}
	}
	e.uint(uint64(len(c.State.Fired)))
	for _, tuple := range c.State.Fired {
		e.uint(uint64(tuple[0]))
		e.uint(uint64(len(tuple) - 1))
		for _, id := range tuple[1:] {
			e.uint(uint64(termIdx[id]))
		}
	}

	sum := sha256.Sum256(e.buf)
	e.buf = append(e.buf, sum[:checksumLen]...)
	return e.buf, nil
}

// Decode parses and validates an artifact. The returned checkpoint owns
// a wire stream positioned after the snapshot, so ApplyDelta can append
// delta blobs with null identity resolved correctly. Every defect —
// checksum mismatch, truncation, bad section, a fired key referencing a
// null the snapshot does not contain — fails with ErrCorrupt wrapping
// the specifics; hostile input never panics.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < 2+1+2*sha256.Size+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any artifact", ErrCorrupt, len(data))
	}
	payload, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	sum := sha256.Sum256(payload)
	if [checksumLen]byte(tail) != [checksumLen]byte(sum[:checksumLen]) {
		return nil, fmt.Errorf("%w: checksum mismatch (truncated or altered artifact)", ErrCorrupt)
	}
	r := &reader{data: payload}
	if payload[0] != 'C' || payload[1] != 'P' {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.pos = 2
	v, err := r.count("version")
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	c := &Checkpoint{State: &chase.ResumeState{}}
	fp, err := r.raw(sha256.Size, "fingerprint")
	if err != nil {
		return nil, err
	}
	copy(c.Fingerprint[:], fp)
	ex, err := r.raw(sha256.Size, "exact digest")
	if err != nil {
		return nil, err
	}
	copy(c.Exact[:], ex)
	variant, err := r.count("variant")
	if err != nil {
		return nil, err
	}
	if variant > int(chase.Restricted) {
		return nil, fmt.Errorf("%w: unknown chase variant %d", ErrCorrupt, variant)
	}
	c.Variant = chase.Variant(variant)
	c.State.Variant = c.Variant
	flags, err := r.byte("flags")
	if err != nil {
		return nil, err
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags)
	}
	c.Terminated = flags&1 != 0
	if c.Rounds, err = r.count("rounds"); err != nil {
		return nil, err
	}
	if c.State.NextNullID, err = r.count("next null id"); err != nil {
		return nil, err
	}
	if c.State.DeltaStart, err = r.count("delta start"); err != nil {
		return nil, err
	}
	snapLen, err := r.count("snapshot length")
	if err != nil {
		return nil, err
	}
	snap, err := r.raw(snapLen, "snapshot")
	if err != nil {
		return nil, err
	}
	c.dec = wire.NewDecoder()
	if c.Instance, err = c.dec.Snapshot(snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %w", ErrCorrupt, err)
	}
	if c.State.DeltaStart > c.Instance.Len() {
		return nil, fmt.Errorf("%w: delta window starts at %d, snapshot holds %d atoms", ErrCorrupt, c.State.DeltaStart, c.Instance.Len())
	}

	// Fired-key nulls resolve against the snapshot's: every fired key id
	// came from a matched instance atom.
	nullByID := make(map[int]*logic.Null)
	for _, a := range c.Instance.Atoms() {
		for _, t := range a.Args {
			if n, ok := t.(*logic.Null); ok {
				nullByID[n.ID()] = n
			}
		}
	}
	nterms, err := r.records("fired term count")
	if err != nil {
		return nil, err
	}
	termIDs := make([]int32, nterms)
	for i := range termIDs {
		tag, err := r.byte("fired term tag")
		if err != nil {
			return nil, err
		}
		var term logic.Term
		switch tag {
		case 'c':
			s, err := r.str("constant")
			if err != nil {
				return nil, err
			}
			term = logic.Constant(s)
		case 'f':
			v, err := r.int("fresh value")
			if err != nil {
				return nil, err
			}
			term = logic.Fresh(v)
		case 'n':
			id, err := r.count("null id")
			if err != nil {
				return nil, err
			}
			depth, err := r.count("null depth")
			if err != nil {
				return nil, err
			}
			n, ok := nullByID[id]
			if !ok {
				return nil, fmt.Errorf("%w: fired key references null %d, which the snapshot does not contain", ErrCorrupt, id)
			}
			if n.Depth() != depth {
				return nil, fmt.Errorf("%w: fired key null %d at depth %d, snapshot has depth %d", ErrCorrupt, id, depth, n.Depth())
			}
			term = n
		case 'v':
			s, err := r.str("variable")
			if err != nil {
				return nil, err
			}
			term = logic.Variable(s)
		case 'o':
			key, err := r.str("foreign key")
			if err != nil {
				return nil, err
			}
			rendering, err := r.str("foreign rendering")
			if err != nil {
				return nil, err
			}
			if term, err = wire.ForeignTerm(key, rendering); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
		default:
			return nil, fmt.Errorf("%w: unknown fired term tag %q", ErrCorrupt, tag)
		}
		termIDs[i] = logic.IDOf(term)
	}
	nfired, err := r.records("fired tuple count")
	if err != nil {
		return nil, err
	}
	c.State.Fired = make([][]int32, nfired)
	// Every tuple costs a TGD index byte, a width byte and a byte per id,
	// so the remaining input bounds all tuples' elements (index plus ids)
	// and one backing array holds them without growing. Each tuple's
	// capacity ends at its length, so an append to one never overwrites
	// the next.
	flat := make([]int32, 0, len(r.data)-r.pos-nfired)
	for i := range c.State.Fired {
		tgdIdx, err := r.count("fired TGD index")
		if err != nil {
			return nil, err
		}
		if tgdIdx > math.MaxInt32 {
			return nil, fmt.Errorf("%w: fired TGD index %d out of range", ErrCorrupt, tgdIdx)
		}
		nids, err := r.records("fired key width")
		if err != nil {
			return nil, err
		}
		start := len(flat)
		flat = append(flat, int32(tgdIdx))
		for range nids {
			ti, err := r.count("fired term index")
			if err != nil {
				return nil, err
			}
			if ti >= len(termIDs) {
				return nil, fmt.Errorf("%w: fired key references term %d of %d", ErrCorrupt, ti, len(termIDs))
			}
			flat = append(flat, termIDs[ti])
		}
		c.State.Fired[i] = flat[start:len(flat):len(flat)]
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.data)-r.pos)
	}
	return c, nil
}

type encoder struct {
	buf []byte
}

func (e *encoder) uint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// reader is a bounds-checked cursor, the same discipline as the wire
// codec's: every count and index goes through count/records, which
// bounds what hostile input can make the decoder allocate.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) byte(what string) (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) raw(n int, what string) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) count(what string) (int, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
	}
	r.pos += n
	return int(v), nil
}

func (r *reader) records(what string) (int, error) {
	n, err := r.count(what)
	if err != nil {
		return 0, err
	}
	if n > len(r.data)-r.pos {
		return 0, fmt.Errorf("%w: %s %d exceeds remaining input", ErrCorrupt, what, n)
	}
	return n, nil
}

func (r *reader) int(what string) (int, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 || v > math.MaxInt32 || v < math.MinInt32 {
		return 0, fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
	}
	r.pos += n
	return int(v), nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what + " length")
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.data) {
		return "", fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}
