package checkpoint

// The artifact format, written and read through internal/codec. All
// integers are unsigned varints; strings are length-prefixed. Layout of
// version 2, the one Encode writes:
//
//	magic "CP", version varint (2)
//	fingerprint: 32 raw bytes (compile.Of)
//	exact digest: 32 raw bytes (ExactDigest)
//	variant varint
//	flags byte (bit 0: terminated)
//	rounds varint
//	next null id varint (factory high-water mark)
//	delta start varint (semi-naive window start)
//	snapshot: length varint + a wire snapshot of the instance
//	checksum: first 8 bytes of the SHA-256 of everything before it
//
// Version 1 carried two more sections between the snapshot and the
// checksum: the fired-trigger keys, as a term manifest (count, then one
// wire term record per term) and the tuples over it (count; per tuple a
// TGD index, an id count and that many manifest indexes). A resumed run
// derives the fired set from the snapshot's first DeltaStart atoms, so
// Decode still reads version 1, checks those sections' bounds and term
// records, and discards them.
//
// Like the wire codec, the encoding is a pure function of the
// checkpoint's content — process-local symbol ids never appear — so
// equal checkpoints encode byte-identically in any process and
// encode∘decode is a fixpoint (FuzzCheckpointRoundTrip pins both down).
// Encoding enforces the snapshot's null identity precondition: two
// distinct nulls sharing a factory id (as decoded instances from
// independent streams can) would silently merge on the wire, so Encode
// refuses such instances instead of producing an artifact that decodes
// to something else.

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/logic"
	"repro/internal/wire"
)

const checksumLen = 8

// Encode serializes the checkpoint. It fails when the instance cannot
// be expressed portably: distinct nulls sharing a factory id would
// collide on the wire and decode as one null.
func (c *Checkpoint) Encode() ([]byte, error) {
	if c.State == nil || c.Instance == nil {
		return nil, fmt.Errorf("checkpoint: encode of an incomplete checkpoint")
	}
	// The (factory id -> null) injection the wire identity requires.
	byID := make(map[int]*logic.Null)
	for _, a := range c.Instance.Atoms() {
		for _, t := range a.Args {
			if n, ok := t.(*logic.Null); ok {
				if prev, ok := byID[n.ID()]; ok && prev != n {
					return nil, fmt.Errorf("checkpoint: distinct nulls share factory id %d; the instance is not portable", n.ID())
				}
				byID[n.ID()] = n
			}
		}
	}

	snap := wire.EncodeSnapshot(c.Instance)
	// 128 bytes hold the header (two digests, a flag byte and five
	// varints of at most 10 bytes each) and the checksum.
	w := codec.NewWriter(128 + len(snap))
	w.Raw([]byte{'C', 'P'})
	w.Uint(Version)
	w.Raw(c.Fingerprint[:])
	w.Raw(c.Exact[:])
	w.Uint(uint64(c.Variant))
	var flags byte
	if c.Terminated {
		flags |= 1
	}
	w.Byte(flags)
	w.Uint(uint64(c.Rounds))
	w.Uint(uint64(c.State.NextNullID))
	w.Uint(uint64(c.State.DeltaStart))
	w.Blob(snap)
	sum := sha256.Sum256(w.Bytes())
	w.Raw(sum[:checksumLen])
	return w.Bytes(), nil
}

// Decode parses and validates an artifact of version 1 or 2. The
// returned checkpoint owns a wire stream positioned after the snapshot,
// so ApplyDelta can append delta blobs with null identity resolved
// correctly. Every defect — checksum mismatch, truncation, bad section,
// a delta window past the snapshot — fails with ErrCorrupt wrapping the
// specifics; hostile input never panics.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < 2+1+2*sha256.Size+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any artifact", ErrCorrupt, len(data))
	}
	payload, tail := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	sum := sha256.Sum256(payload)
	if [checksumLen]byte(tail) != [checksumLen]byte(sum[:checksumLen]) {
		return nil, fmt.Errorf("%w: checksum mismatch (truncated or altered artifact)", ErrCorrupt)
	}
	r := codec.NewReader(payload, ErrCorrupt)
	if magic, err := r.Raw(2, "magic"); err != nil || magic[0] != 'C' || magic[1] != 'P' {
		return nil, r.Errorf("bad magic")
	}
	v, err := r.Value("version")
	if err != nil {
		return nil, err
	}
	if v != 1 && v != Version {
		return nil, r.Errorf("version %d, want 1 or %d", v, Version)
	}
	c := &Checkpoint{State: &chase.ResumeState{}}
	fp, err := r.Raw(sha256.Size, "fingerprint")
	if err != nil {
		return nil, err
	}
	copy(c.Fingerprint[:], fp)
	ex, err := r.Raw(sha256.Size, "exact digest")
	if err != nil {
		return nil, err
	}
	copy(c.Exact[:], ex)
	variant, err := r.Value("variant")
	if err != nil {
		return nil, err
	}
	if variant > int(chase.Restricted) {
		return nil, r.Errorf("unknown chase variant %d", variant)
	}
	c.Variant = chase.Variant(variant)
	c.State.Variant = c.Variant
	flags, err := r.Byte("flags")
	if err != nil {
		return nil, err
	}
	if flags&^1 != 0 {
		return nil, r.Errorf("unknown flag bits %#x", flags)
	}
	c.Terminated = flags&1 != 0
	if c.Rounds, err = r.Value("rounds"); err != nil {
		return nil, err
	}
	if c.State.NextNullID, err = r.Value("next null id"); err != nil {
		return nil, err
	}
	if c.State.DeltaStart, err = r.Value("delta start"); err != nil {
		return nil, err
	}
	snap, err := r.Blob("snapshot")
	if err != nil {
		return nil, err
	}
	c.dec = wire.NewDecoder()
	if c.Instance, err = c.dec.Snapshot(snap); err != nil {
		return nil, r.Errorf("snapshot: %w", err)
	}
	if c.State.DeltaStart > c.Instance.Len() {
		return nil, r.Errorf("delta window starts at %d, snapshot holds %d atoms", c.State.DeltaStart, c.Instance.Len())
	}

	if v == 1 {
		if err := skipFired(r); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// skipFired reads a version-1 artifact's fired-trigger sections — the
// term manifest and the tuples over it — and discards them, with the
// bounds checks version 1's decoder applied.
func skipFired(r *codec.Reader) error {
	nterms, err := r.Len("fired term count")
	if err != nil {
		return err
	}
	for range nterms {
		if _, err := wire.ReadTerm(r); err != nil {
			return err
		}
	}
	nfired, err := r.Len("fired tuple count")
	if err != nil {
		return err
	}
	for range nfired {
		if _, err := r.Value("fired TGD index"); err != nil {
			return err
		}
		nids, err := r.Len("fired key width")
		if err != nil {
			return err
		}
		for range nids {
			ti, err := r.Value("fired term index")
			if err != nil {
				return err
			}
			if ti >= nterms {
				return r.Errorf("fired key references term %d of %d", ti, nterms)
			}
		}
	}
	return nil
}
