package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/service"
	"repro/internal/tgds"
)

// TestReadFrameStream: the stream reader's three outcomes — clean EOF
// between frames, torn header, torn body — each land on their typed
// error.
func TestReadFrameStream(t *testing.T) {
	valid := appendFrame(nil, kindProgress, encodeProgress(chase.Stats{Atoms: 3}))
	read := func(data []byte) error {
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		return err
	}
	if err := read(nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if err := read(valid[:3]); !errors.Is(err, ErrFrame) {
		t.Fatalf("torn header: %v, want ErrFrame", err)
	}
	if err := read(valid[:len(valid)-1]); !errors.Is(err, ErrFrame) {
		t.Fatalf("torn body: %v, want ErrFrame", err)
	}
	kind, body, err := readFrame(bufio.NewReader(bytes.NewReader(valid)))
	if err != nil || kind != kindProgress {
		t.Fatalf("valid frame: (%c, %v)", kind, err)
	}
	if s, err := decodeProgress(body); err != nil || s.Atoms != 3 {
		t.Fatalf("progress round trip: (%+v, %v)", s, err)
	}
}

// TestMessageTruncationSweep: every proper prefix of every message
// encoding must fail its decoder — no prefix may silently parse as a
// shorter valid message.
func TestMessageTruncationSweep(t *testing.T) {
	full := submitMsg{
		Name: "n", Tenant: "t", Priority: -2, Fingerprint: compile.Fingerprint{7},
		Variant: chase.Restricted, MaxAtoms: 5, MaxRounds: 6, Workers: 7,
		RecordDerivation: true, TrackForest: true, NoSemiNaive: true, WantProgress: true,
		Snapshot: []byte("snap"), Deltas: [][]byte{[]byte("d")},
	}
	bodies := map[string][]byte{
		"register":   encodeRegister(registerMsg{Rules: "p(X) -> q(X)."}),
		"registered": encodeRegistered(registeredMsg{Fingerprint: compile.Fingerprint{1}}),
		"submit":     encodeSubmit(full),
		"progress":   encodeProgress(chase.Stats{Atoms: 1, Rounds: 2}),
		"result":     encodeResult(resultMsg{Terminated: true, Stats: chase.Stats{Atoms: 4}, Snapshot: []byte("s"), Derivation: "d"}),
		"error":      encodeError(errorMsg{Code: "internal", Message: "m"}),
	}
	decoders := map[string]func([]byte) error{
		"register":   func(b []byte) error { _, err := decodeRegister(b); return err },
		"registered": func(b []byte) error { _, err := decodeRegistered(b); return err },
		"submit":     func(b []byte) error { _, err := decodeSubmit(b); return err },
		"progress":   func(b []byte) error { _, err := decodeProgress(b); return err },
		"result":     func(b []byte) error { _, err := decodeResult(b); return err },
		"error":      func(b []byte) error { _, err := decodeError(b); return err },
	}
	for name, body := range bodies {
		decode := decoders[name]
		if err := decode(body); err != nil {
			t.Fatalf("%s: full body rejected: %v", name, err)
		}
		for i := 0; i < len(body); i++ {
			if err := decode(body[:i]); !errors.Is(err, ErrFrame) {
				t.Fatalf("%s[:%d]: err = %v, want ErrFrame", name, i, err)
			}
		}
	}
	// The all-flags submit round-trips losslessly.
	m, err := decodeSubmit(bodies["submit"])
	if err != nil {
		t.Fatal(err)
	}
	if !m.RecordDerivation || !m.TrackForest || !m.NoSemiNaive || !m.WantProgress ||
		m.Priority != -2 || m.Variant != chase.Restricted || string(m.Deltas[0]) != "d" {
		t.Fatalf("submit round trip lost fields: %+v", m)
	}
	// A size field beyond int32 is corrupt even when bytes remain.
	var w codec.Writer
	w.Str("n")
	w.Str("t")
	w.Int(0)
	w.Raw(new(compile.Fingerprint)[:])
	w.Byte(0)
	w.Uint(1 << 40) // maxAtoms out of range
	if _, err := decodeSubmit(w.Bytes()); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversize size field: %v, want ErrFrame", err)
	}
}

// TestWriteServiceErrorTaxonomy: typed service errors cross with their
// kind; anything else is internal.
func TestWriteServiceErrorTaxonomy(t *testing.T) {
	var buf bytes.Buffer
	if err := writeServiceError(&buf, errors.New("plain")); err != nil {
		t.Fatal(err)
	}
	kind, body, _, err := DecodeFrame(buf.Bytes())
	if err != nil || kind != kindError {
		t.Fatalf("frame: (%c, %v)", kind, err)
	}
	m, err := decodeError(body)
	if err != nil || m.Code != service.KindInternal.String() {
		t.Fatalf("plain error crossed as %+v, want internal", m)
	}
}

// TestSourceFuncAdapter: the function adapter satisfies OntologySource.
func TestSourceFuncAdapter(t *testing.T) {
	want := errors.New("no such ontology")
	src := SourceFunc(func(fp compile.Fingerprint) (*tgds.Set, error) { return nil, want })
	if _, err := src.Ontology(compile.Fingerprint{}); err != want {
		t.Fatalf("adapter returned %v", err)
	}
}

// TestServerLifecycleEdges: Serve after Close is a clean no-op, and
// Close is idempotent.
func TestServerLifecycleEdges(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	srv := NewServer(svc)
	srv.Close()
	srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis); err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// TestServerBadBodies: hostile request bodies — undecodable register,
// unparseable rules, undecodable submit — each answer one typed
// bad-request frame and keep the connection alive (the framing is
// intact; only the message is bad).
func TestServerBadBodies(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	srv := NewServer(svc)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	expectBadRequest := func(stage string) {
		t.Helper()
		kind, body, err := readFrame(r)
		if err != nil || kind != kindError {
			t.Fatalf("%s: answer (%c, %v), want error frame", stage, kind, err)
		}
		m, err := decodeError(body)
		if err != nil || m.Code != service.KindBadRequest.String() {
			t.Fatalf("%s: error %+v, want bad-request", stage, m)
		}
	}
	if err := writeFrame(conn, kindRegister, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	expectBadRequest("undecodable register")
	if err := writeFrame(conn, kindRegister, encodeRegister(registerMsg{Rules: "this is not dlgp ->"})); err != nil {
		t.Fatal(err)
	}
	expectBadRequest("unparseable rules")
	if err := writeFrame(conn, kindSubmit, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	expectBadRequest("undecodable submit")
	// The connection survived all three: a well-formed register works.
	if err := writeFrame(conn, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."})); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := readFrame(r); err != nil || kind != kindRegistered {
		t.Fatalf("register after bad bodies: (%c, %v)", kind, err)
	}
}

// corruptAnswerWorker answers every submit with the given raw frame.
func corruptAnswerWorker(t *testing.T, kind byte, body []byte) string {
	t.Helper()
	return fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			if _, _, err := readFrame(r); err != nil {
				return
			}
			if err := writeFrame(conn, kind, body); err != nil {
				return
			}
		}
	})
}

// TestCoordinatorCorruptAnswers: undecodable progress, result, result
// payload, and error bodies are all transport failures (the stream can
// no longer be trusted), surfaced typed after the replay budget.
func TestCoordinatorCorruptAnswers(t *testing.T) {
	cases := []struct {
		name string
		kind byte
		body []byte
	}{
		{"corrupt progress", kindProgress, []byte{0xFF}},
		{"corrupt result", kindResult, []byte{0xFF}},
		{"corrupt result payload", kindResult, encodeResult(resultMsg{Snapshot: []byte("not a wire snapshot")})},
		{"corrupt error", kindError, []byte{0xFF}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(Config{
				Workers:      []string{corruptAnswerWorker(t, tc.kind, tc.body)},
				DialAttempts: 2,
				DialBackoff:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			tk, err := coord.Submit(Job{Name: "x", Progress: func(chase.Stats) {}})
			if err != nil {
				t.Fatal(err)
			}
			if res := tk.Wait(); !errors.Is(res.Err, ErrTransport) {
				t.Fatalf("%s: err = %v, want ErrTransport", tc.name, res.Err)
			}
		})
	}
}

// TestCoordinatorColdPullFailures: a failing source is terminal (not a
// transport replay); a worker that answers the cold-pull Register with
// garbage, an error frame, or a wrong-kind frame is a transport
// failure.
func TestCoordinatorColdPullFailures(t *testing.T) {
	prog, err := parser.Parse("p(a). p(X) -> q(X).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}

	unknownThen := func(onRegister func(conn net.Conn)) string {
		return fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
			for {
				kind, _, err := readFrame(r)
				if err != nil {
					return
				}
				switch kind {
				case kindSubmit:
					writeFrame(conn, kindError, encodeError(errorMsg{
						Code: service.KindUnknownOntology.String(), Message: "unknown ontology",
					}))
				case kindRegister:
					onRegister(conn)
				}
			}
		})
	}

	sourceErr := errors.New("registry lost the clauses")
	t.Run("source failure", func(t *testing.T) {
		coord, err := NewCoordinator(Config{
			Workers:      []string{unknownThen(func(net.Conn) {})},
			Source:       SourceFunc(func(compile.Fingerprint) (*tgds.Set, error) { return nil, sourceErr }),
			DialAttempts: 2,
			DialBackoff:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		tk, err := coord.Submit(Job{Name: "x", Fingerprint: h.Fingerprint})
		if err != nil {
			t.Fatal(err)
		}
		if res := tk.Wait(); !errors.Is(res.Err, sourceErr) {
			t.Fatalf("source failure err = %v, want %v (terminal, no replay)", res.Err, sourceErr)
		}
	})

	registerAnswers := []struct {
		name string
		ack  func(conn net.Conn)
	}{
		{"garbage ack", func(conn net.Conn) { writeFrame(conn, kindRegistered, []byte{0xFF}) }},
		{"error ack", func(conn net.Conn) {
			writeFrame(conn, kindError, encodeError(errorMsg{Code: service.KindInternal.String(), Message: "boom"}))
		}},
		{"wrong-kind ack", func(conn net.Conn) { writeFrame(conn, kindProgress, encodeProgress(chase.Stats{})) }},
	}
	for _, tc := range registerAnswers {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(Config{
				Workers:      []string{unknownThen(tc.ack)},
				Source:       local,
				DialAttempts: 2,
				DialBackoff:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			tk, err := coord.Submit(Job{Name: "x", Fingerprint: h.Fingerprint, Snapshot: nil})
			if err != nil {
				t.Fatal(err)
			}
			res := tk.Wait()
			if res.Err == nil {
				t.Fatalf("%s: cold pull succeeded against a hostile ack", tc.name)
			}
			if tc.name != "error ack" && !errors.Is(res.Err, ErrTransport) {
				t.Fatalf("%s: err = %v, want ErrTransport", tc.name, res.Err)
			}
		})
	}
}

// TestRenderDerivationNil pins the nil rendering (no derivation
// recorded — the common case).
func TestRenderDerivationNil(t *testing.T) {
	if got := RenderDerivation(nil); got != "" {
		t.Fatalf("RenderDerivation(nil) = %q", got)
	}
}

// TestWriteFrameOversize: a body over the cap is refused before any
// byte hits the writer.
func TestWriteFrameOversize(t *testing.T) {
	var sink strings.Builder
	err := writeFrame(&sink, kindResult, make([]byte, MaxFrameBytes+1))
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("oversize writeFrame err = %v, want ErrFrame", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("oversize frame leaked %d bytes to the writer", sink.Len())
	}
}
