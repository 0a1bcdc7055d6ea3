package wire

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/families"
)

// BenchmarkWireDecode decodes the snapshot of a University(50) chase
// result (about 4.4k atoms, some with nulls): the shape a fleet
// coordinator decodes for every answered job. CI pins its allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	w := families.University(50, 1)
	res := chase.Run(w.Database, w.Sigma, chase.Options{})
	if !res.Terminated {
		b.Fatal("University(50) chase did not terminate")
	}
	data := EncodeSnapshot(res.Instance)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}
