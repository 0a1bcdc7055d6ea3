package qos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/parser"
)

// TestParseGrammar: every form of the policy grammar parses to the
// documented Policy, and String renders a form Parse accepts back to the
// same value (the CLI echoes policies in error messages and request
// files round-trip them).
func TestParseGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", Policy{}},
		{"exact", Policy{}},
		{"learn", Policy{Learn: true}},
		{"bounded", Policy{Mode: Bounded}},
		{"anytime:250ms", Policy{Mode: Anytime, Deadline: 250 * time.Millisecond}},
		{"anytime:3r", Policy{Mode: Anytime, Rounds: 3}},
		{"anytime:250ms,3r", Policy{Mode: Anytime, Deadline: 250 * time.Millisecond, Rounds: 3}},
		{"anytime:3r,250ms", Policy{Mode: Anytime, Deadline: 250 * time.Millisecond, Rounds: 3}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		again, err := Parse(got.String())
		if err != nil || again != got {
			t.Fatalf("Parse(%q).String() = %q does not round-trip: %+v, %v", c.in, got.String(), again, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		in      string
		wantMsg string
	}{
		{"sometimes", "unknown QoS policy"},
		{"anytime", "unknown QoS policy"},
		{"anytime:", "unknown QoS policy"},
		{"anytime:0r", "bad anytime round quota"},
		{"anytime:-2r", "bad anytime round quota"},
		{"anytime:3r,4r", "bad anytime round quota"},
		{"anytime:-5ms", "bad anytime deadline"},
		{"anytime:0s", "bad anytime deadline"},
		{"anytime:1s,2s", "bad anytime deadline"},
		{"anytime:soon", "bad anytime deadline"},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); err == nil || !strings.Contains(err.Error(), c.wantMsg) {
			t.Fatalf("Parse(%q) = %v, want error containing %q", c.in, err, c.wantMsg)
		}
	}
}

func TestModeAndSourceNames(t *testing.T) {
	if Exact.String() != "exact" || Bounded.String() != "bounded" || Anytime.String() != "anytime" {
		t.Fatal("mode names drifted from the CLI grammar")
	}
	if SourceFlag.String() != "flag" || SourceDeadline.String() != "deadline" || SourceLearnedBound.String() != "learned-bound" {
		t.Fatal("budget source names drifted from the truncation marker's vocabulary")
	}
}

// TestApply covers the budget-resolution table: the tighter of the
// explicit and policy budget wins, and the Decision names the winner.
func TestApply(t *testing.T) {
	cache := compile.NewCache(0)
	fp := compile.Fingerprint{1}
	cache.StoreBound(fp, chase.SemiOblivious, compile.LearnedBound{Rounds: 5, Atoms: 40, Observed: true})

	t.Run("exact-passthrough", func(t *testing.T) {
		d, err := Policy{}.Apply(cache, fp, chase.SemiOblivious, 7, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxRounds != 7 || d.RoundsSource != SourceFlag || d.Wall != time.Second || d.WallSource != SourceFlag {
			t.Fatalf("exact decision altered the explicit budgets: %+v", d)
		}
		if d.RoundGranular() {
			t.Fatal("exact runs must not pay round-granular interrupt polling")
		}
	})
	t.Run("bounded-wins-over-unlimited", func(t *testing.T) {
		d, err := Policy{Mode: Bounded}.Apply(cache, fp, chase.SemiOblivious, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxRounds != 5 || d.RoundsSource != SourceLearnedBound || !d.Bound.Observed {
			t.Fatalf("bounded decision: %+v", d)
		}
	})
	t.Run("tighter-flag-wins-over-bound", func(t *testing.T) {
		d, err := Policy{Mode: Bounded}.Apply(cache, fp, chase.SemiOblivious, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxRounds != 3 || d.RoundsSource != SourceFlag {
			t.Fatalf("an explicit -max-rounds 3 is tighter than the learned 5 and must win: %+v", d)
		}
	})
	t.Run("bounded-miss", func(t *testing.T) {
		_, err := Policy{Mode: Bounded}.Apply(cache, compile.Fingerprint{9}, chase.SemiOblivious, 0, 0)
		if !errors.Is(err, ErrNoLearnedBound) {
			t.Fatalf("errors.Is(err, ErrNoLearnedBound) = false for %v", err)
		}
	})
	t.Run("bounded-miss-other-variant", func(t *testing.T) {
		// Bounds are per-(fingerprint, variant): a semi-oblivious profile
		// does not license a restricted-mode bounded run.
		_, err := Policy{Mode: Bounded}.Apply(cache, fp, chase.Restricted, 0, 0)
		if !errors.Is(err, ErrNoLearnedBound) {
			t.Fatalf("want ErrNoLearnedBound for the unprofiled variant, got %v", err)
		}
	})
	t.Run("anytime-rounds", func(t *testing.T) {
		d, err := Policy{Mode: Anytime, Rounds: 4}.Apply(cache, fp, chase.SemiOblivious, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxRounds != 4 || d.RoundsSource != SourceDeadline || !d.RoundGranular() {
			t.Fatalf("anytime round quota: %+v", d)
		}
	})
	t.Run("anytime-deadline-tightens-wall", func(t *testing.T) {
		d, err := Policy{Mode: Anytime, Deadline: time.Millisecond}.Apply(cache, fp, chase.SemiOblivious, 0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if d.Wall != time.Millisecond || d.WallSource != SourceDeadline || d.Deadline != time.Millisecond {
			t.Fatalf("anytime deadline: %+v", d)
		}
	})
	t.Run("anytime-loose-deadline-keeps-flag-wall", func(t *testing.T) {
		d, err := Policy{Mode: Anytime, Deadline: time.Hour}.Apply(cache, fp, chase.SemiOblivious, 0, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if d.Wall != time.Millisecond || d.WallSource != SourceFlag {
			t.Fatalf("a tighter -wall must win over a loose deadline: %+v", d)
		}
	})
	t.Run("rejections", func(t *testing.T) {
		for _, p := range []Policy{
			{Mode: Anytime},                         // no budget at all
			{Mode: Anytime, Deadline: -time.Second}, // negative deadline
			{Mode: Anytime, Rounds: -1},             // negative quota
			{Mode: Bounded, Learn: true},            // learning needs an exact run
			{Mode: Mode(42)},                        // unknown mode (wire hostile)
		} {
			if _, err := p.Apply(cache, fp, chase.SemiOblivious, 0, 0); err == nil {
				t.Fatalf("Apply accepted invalid policy %+v", p)
			}
		}
	})
}

// TestTruncationSource: the marker's budget attribution is computed from
// the decision and the final stats alone — round exhaustion names the
// round budget's source, a mid-round atom break the flag, anything else
// the wall.
func TestTruncationSource(t *testing.T) {
	d := Decision{Mode: Anytime, MaxRounds: 3, RoundsSource: SourceDeadline, Wall: time.Second, WallSource: SourceDeadline}
	if got := d.TruncationSource(0, chase.Stats{Rounds: 3}); got != SourceDeadline {
		t.Fatalf("round-quota exhaustion: %v", got)
	}
	bounded := Decision{Mode: Bounded, MaxRounds: 5, RoundsSource: SourceLearnedBound}
	if got := bounded.TruncationSource(0, chase.Stats{Rounds: 5}); got != SourceLearnedBound {
		t.Fatalf("learned-bound exhaustion: %v", got)
	}
	if got := bounded.TruncationSource(100, chase.Stats{Rounds: 2, Atoms: 150}); got != SourceFlag {
		t.Fatalf("atom-budget break: %v", got)
	}
	wall := Decision{Mode: Anytime, Wall: time.Millisecond, WallSource: SourceDeadline}
	if got := wall.TruncationSource(0, chase.Stats{Rounds: 9}); got != SourceDeadline {
		t.Fatalf("wall expiry: %v", got)
	}
	if got := (Decision{}).TruncationSource(100, chase.Stats{Atoms: 150}); got != SourceFlag {
		t.Fatalf("plain flag budget: %v", got)
	}
}

// TestBoundsCodec: encode∘decode is the identity on canonical input, and
// decode∘encode reproduces the blob byte for byte (the canonical-form
// property the fleet's registration framing relies on).
func TestBoundsCodec(t *testing.T) {
	bounds := []compile.VariantBound{
		{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 5, Atoms: 40, Observed: true}},
		{Variant: chase.Oblivious, Bound: compile.LearnedBound{Rounds: 300, Atoms: 1 << 20, Observed: false}},
		{Variant: chase.Restricted, Bound: compile.LearnedBound{Rounds: 4, Atoms: 31, Observed: true}},
	}
	blob := EncodeBounds(bounds)
	got, err := DecodeBounds(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(bounds) {
		t.Fatalf("decode(encode(x)) = %v, want %v", got, bounds)
	}
	if again := EncodeBounds(got); string(again) != string(blob) {
		t.Fatalf("encode(decode(b)) changed the blob: %x vs %x", again, blob)
	}
	if EncodeBounds(nil) != nil {
		t.Fatal("empty bounds must encode to nil")
	}
	if got, err := DecodeBounds(nil); err != nil || got != nil {
		t.Fatalf("empty blob must decode to nil: %v, %v", got, err)
	}
}

func TestDecodeBoundsRejectsCorrupt(t *testing.T) {
	one := EncodeBounds([]compile.VariantBound{
		{Variant: chase.SemiOblivious, Bound: compile.LearnedBound{Rounds: 2, Atoms: 7, Observed: true}},
	})
	cases := map[string][]byte{
		"zero count":        {0x00},
		"oversized count":   {0x09},
		"count overflow":    {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"truncated record":  {0x01},
		"unknown variant":   {0x01, 0x07, 0x02, 0x07, 0x01},
		"duplicate variant": {0x02, 0x00, 0x02, 0x07, 0x01, 0x00, 0x02, 0x07, 0x01},
		"out of order":      {0x02, 0x01, 0x02, 0x07, 0x01, 0x00, 0x02, 0x07, 0x01},
		"rounds overflow":   {0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x07, 0x01},
		"missing observed":  one[:len(one)-1],
		"bad observed":      append(append([]byte{}, one[:len(one)-1]...), 0x02),
		"trailing bytes":    append(append([]byte{}, one...), 0x00),
	}
	for name, blob := range cases {
		if _, err := DecodeBounds(blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeBounds(%x) = %v, want ErrCorrupt", name, blob, err)
		}
	}
}

// TestRecorder: a terminated reference run stores Observed=true with the
// fixpoint round included; a truncated run stores its prefix with
// Observed=false; relearning overwrites.
func TestRecorder(t *testing.T) {
	cache := compile.NewCache(0)
	fp := compile.Fingerprint{2}
	r := NewRecorder(cache, fp, chase.Restricted)
	r.ObserveDone(chase.Stats{Rounds: 6, Atoms: 80}, true)
	b, ok := cache.Bound(fp, chase.Restricted)
	if !ok || b != (compile.LearnedBound{Rounds: 6, Atoms: 80, Observed: true}) {
		t.Fatalf("stored bound: %+v, %v", b, ok)
	}
	r.ObserveDone(chase.Stats{Rounds: 3, Atoms: 30}, false)
	if b, _ = cache.Bound(fp, chase.Restricted); b.Observed || b.Rounds != 3 {
		t.Fatalf("relearn must overwrite with the truncated prefix: %+v", b)
	}
	r.ObserveRound(chase.Stats{}) // round boundaries are a no-op for the recorder

	// Attach composes onto an existing observer chain instead of
	// displacing it: both the prior observer and the recorder see Done.
	prior := &countingObserver{}
	opts := chase.Options{Observer: prior}
	NewRecorder(cache, compile.Fingerprint{3}, chase.Oblivious).Attach(&opts)
	opts.Observer.ObserveDone(chase.Stats{Rounds: 1, Atoms: 1}, true)
	if prior.done != 1 {
		t.Fatal("Attach displaced the prior observer")
	}
	if _, ok := cache.Bound(compile.Fingerprint{3}, chase.Oblivious); !ok {
		t.Fatal("composed recorder did not store")
	}
}

type countingObserver struct{ done int }

func (c *countingObserver) ObserveRound(chase.Stats)      {}
func (c *countingObserver) ObserveDone(chase.Stats, bool) { c.done++ }

// TestProfileThenBounded is the package-level serving loop: record a
// terminating program's reference run, then replay it under the learned
// bound — the
// bound includes the final empty round, so the replay reaches the same
// fixpoint and still terminates.
func TestProfileThenBounded(t *testing.T) {
	prog, err := parser.Parse(`
		p(a).
		p(X) -> ∃Y q(X, Y).
		q(X, Y) -> r(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	cache := compile.NewCache(0)
	fp := compile.Of(prog.Rules)
	opts := chase.Options{MaxAtoms: 1000}
	NewRecorder(cache, fp, chase.SemiOblivious).Attach(&opts)
	ref := chase.Run(prog.Database, prog.Rules, opts)
	if !ref.Terminated {
		t.Fatal("reference run must terminate")
	}
	d, err := Policy{Mode: Bounded}.Apply(cache, fp, chase.SemiOblivious, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := chase.Run(prog.Database, prog.Rules, chase.Options{MaxAtoms: 1000, MaxRounds: d.MaxRounds})
	if !res.Terminated {
		t.Fatal("bounded replay under the learned bound must reach the fixpoint")
	}
	if res.Instance.CanonicalKey() != ref.Instance.CanonicalKey() {
		t.Fatal("bounded replay diverged from the reference instance")
	}
}
