package wire

import (
	"sync"
	"sync/atomic"
)

// Meter is the codec's observability seam: a listener that sees the
// byte size of every snapshot encode and decode. The codec stays
// telemetry-agnostic — the interface is defined here so this package
// imports nothing, and internal/service installs an adapter that feeds
// wire_encode_bytes / wire_decode_bytes in its telemetry registry.
// Implementations must be safe for concurrent use; metering observes
// sizes only and never alters the encoding (the fuzz-pinned byte
// identity of the codec is unaffected).
type Meter interface {
	// WireEncoded observes one finished encode of n bytes.
	WireEncoded(n int)
	// WireDecoded observes one successfully decoded snapshot of n bytes.
	WireDecoded(n int)
}

// registration wraps an installed Meter so removal works by identity of
// the registration itself, never by comparing Meter values (whose
// dynamic types need not be comparable).
type registration struct{ m Meter }

// meters holds the installed registrations behind one atomic pointer:
// the disabled path stays a single load and nil check per codec call,
// and readers never take meterMu. meterMu serializes mutations only;
// every mutation installs a fresh slice (copy-on-write), so a
// concurrent encode iterating the previous slice is undisturbed.
var (
	meterMu sync.Mutex
	meters  atomic.Pointer[[]*registration]
)

// RegisterMeter installs a codec meter alongside any already installed
// and returns a release function removing exactly this registration,
// idempotently. Every registered meter observes every encode/decode
// until its release runs: two Services metering into separate telemetry
// registries each see the full codec traffic, and closing one — in any
// order — never disturbs the other's accounting. A nil meter registers
// nothing and returns a no-op release.
func RegisterMeter(m Meter) (release func()) {
	if m == nil {
		return func() {}
	}
	reg := &registration{m: m}
	meterMu.Lock()
	defer meterMu.Unlock()
	var cur []*registration
	if p := meters.Load(); p != nil {
		cur = *p
	}
	next := make([]*registration, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, reg)
	meters.Store(&next)
	var once sync.Once
	return func() {
		once.Do(func() {
			meterMu.Lock()
			defer meterMu.Unlock()
			cur := *meters.Load()
			next := make([]*registration, 0, len(cur))
			for _, r := range cur {
				if r != reg {
					next = append(next, r)
				}
			}
			if len(next) == 0 {
				meters.Store(nil)
				return
			}
			meters.Store(&next)
		})
	}
}

// meterEncoded fans one finished encode of n bytes out to every
// registered meter.
func meterEncoded(n int) {
	if p := meters.Load(); p != nil {
		for _, r := range *p {
			r.m.WireEncoded(n)
		}
	}
}

// meterDecoded fans one successfully decoded snapshot of n bytes out to
// every registered meter.
func meterDecoded(n int) {
	if p := meters.Load(); p != nil {
		for _, r := range *p {
			r.m.WireDecoded(n)
		}
	}
}
