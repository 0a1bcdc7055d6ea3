package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/service"
	"repro/internal/wire"
)

// TestFrameDecodeAdversarial drives readFrame through hostile inputs:
// every failure must be a typed ErrFrame (io.EOF for a stream that ends
// before any frame), never a panic or a silent wrong answer.
func TestFrameDecodeAdversarial(t *testing.T) {
	valid := appendFrame(nil, kindError, encodeError(errorMsg{Code: "internal", Message: "x"}))
	oversize := make([]byte, headerSize)
	oversize[0], oversize[1], oversize[2], oversize[3] = 'F', 'L', Version, kindError
	binary.BigEndian.PutUint32(oversize[4:], MaxFrameBytes+1)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"torn header", valid[:headerSize-1], ErrFrame},
		{"torn body", valid[:len(valid)-1], ErrFrame},
		{"bad magic", append([]byte("XX"), valid[2:]...), ErrFrame},
		{"bad version", func() []byte { b := bytes.Clone(valid); b[2] = Version + 1; return b }(), ErrFrame},
		// A peer one version behind fails at the header, before any
		// message decoder reads a body laid out the old way.
		{"previous version", func() []byte { b := bytes.Clone(valid); b[2] = Version - 1; return b }(), ErrFrame},
		{"oversize body", oversize, ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := readFrame(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
				t.Fatalf("readFrame(%q) err = %v, want %v", tc.data, err, tc.want)
			}
		})
	}

	// A valid frame followed by trailing bytes leaves the rest unread.
	r := bytes.NewReader(append(bytes.Clone(valid), 0xFF))
	kind, body, err := readFrame(r)
	if err != nil || kind != kindError || r.Len() != 1 {
		t.Fatalf("readFrame with rest = (%c, %d, %d, %v)", kind, len(body), r.Len(), err)
	}
}

// TestFrameHostileLength: a header claiming a body just under the cap,
// followed by EOF, fails typed and allocates a small fraction of what
// it claims; a body longer than frameChunk that does arrive is read
// whole.
func TestFrameHostileLength(t *testing.T) {
	const claim = MaxFrameBytes - 1
	hdr := []byte{'F', 'L', Version, kindSubmit, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[4:], claim)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	goruntime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("hostile header err = %v, want ErrFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > claim/64 {
		t.Fatalf("a %d-byte claim with no body allocated %d bytes, want at most %d", claim, got, claim/64)
	}

	big := bytes.Repeat([]byte("chase"), 3*frameChunk/5+7)
	kind, body, err := readFrame(bytes.NewReader(appendFrame(nil, kindResult, big)))
	if err != nil || kind != kindResult || !bytes.Equal(body, big) {
		t.Fatalf("%d-byte frame read back as (%c, %d bytes, %v)", len(big), kind, len(body), err)
	}
}

// TestMessageDecodeAdversarial: message bodies reject truncation,
// trailing garbage, unknown flag bits, and out-of-range enums.
func TestMessageDecodeAdversarial(t *testing.T) {
	sub := encodeSubmit(submitMsg{Job: Job{Name: "n", Tenant: "t", Snapshot: []byte("s")}})
	if _, err := decodeSubmit(sub[:len(sub)-1]); err == nil {
		t.Fatal("truncated submit decoded")
	}
	if _, err := decodeSubmit(append(bytes.Clone(sub), 0)); err == nil {
		t.Fatal("submit with trailing bytes decoded")
	}
	// Rebuild with a hostile flags value through the writer.
	var w codec.Writer
	w.Str("n")
	w.Str("t")
	w.Int(0)
	w.Raw(new(compile.Fingerprint)[:])
	w.Byte(0)      // variant
	w.Uint(0)      // maxAtoms
	w.Uint(0)      // maxRounds
	w.Byte(0)      // qos mode
	w.Uint(0)      // qos deadline
	w.Uint(0)      // qos rounds
	w.Byte(1 << 2) // the lowest unassigned flag bit
	w.Blob(nil)
	if _, err := decodeSubmit(w.Bytes()); err == nil {
		t.Fatal("submit with unknown flag bit decoded")
	}
	var w2 codec.Writer
	w2.Str("n")
	w2.Str("t")
	w2.Int(0)
	w2.Raw(new(compile.Fingerprint)[:])
	w2.Byte(9) // unknown variant
	if _, err := decodeSubmit(w2.Bytes()); err == nil {
		t.Fatal("submit with unknown variant decoded")
	}
	var w3 codec.Writer
	w3.Str("n")
	w3.Str("t")
	w3.Int(0)
	w3.Raw(new(compile.Fingerprint)[:])
	w3.Byte(0) // variant
	w3.Uint(0) // maxAtoms
	w3.Uint(0) // maxRounds
	w3.Byte(9) // unknown qos mode
	if _, err := decodeSubmit(w3.Bytes()); err == nil {
		t.Fatal("submit with unknown QoS mode decoded")
	}
	if _, err := decodeResult([]byte{0xFF, 0x01}); err == nil {
		t.Fatal("result with unknown flags decoded")
	}
	if _, err := decodeResult([]byte{0x01, 0x09}); err == nil {
		t.Fatal("result with unknown budget source decoded")
	}
	if _, err := decodeRegistered([]byte{1, 2}); err == nil {
		t.Fatal("short registered ack decoded")
	}
}

// TestServerUnknownKind: a frame with an unexpected kind gets one typed
// bad-request answer, then the server hangs up.
func TestServerUnknownKind(t *testing.T) {
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
	// kindResult is server-to-client only; a server must not accept it.
	if err := writeFrame(conn, kindResult, nil); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	kind, body, err := readFrame(r)
	if err != nil || kind != kindError {
		t.Fatalf("answer = (%c, %v), want error frame", kind, err)
	}
	m, err := decodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != service.KindBadRequest.String() || !strings.Contains(m.Message, "unknown message kind") {
		t.Fatalf("error frame = %+v, want bad-request/unknown kind", m)
	}
	if _, _, err := readFrame(r); err != io.EOF {
		t.Fatalf("connection still open after protocol violation: %v", err)
	}
}

// TestServerTornFrame: a truncated frame mid-stream drops the
// connection without an answer (framing can't be trusted), and the
// listener survives to serve the next client.
func TestServerTornFrame(t *testing.T) {
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
	full := appendFrame(nil, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."}))
	if _, err := conn.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	conn.Close() // tear mid-frame
	// The server must still serve a well-formed client afterwards.
	conn2, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := writeFrame(conn2, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."})); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(bufio.NewReader(conn2))
	if err != nil || kind != kindRegistered {
		t.Fatalf("answer after torn peer = (%c, %v), want registered ack", kind, err)
	}
	if _, err := decodeRegistered(body); err != nil {
		t.Fatal(err)
	}
}

// fakeWorker accepts fleet connections and runs script against each,
// for provoking coordinator-side failure handling.
func fakeWorker(t *testing.T, script func(conn net.Conn, r *bufio.Reader)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				script(conn, bufio.NewReader(conn))
			}()
		}
	}()
	return lis.Addr().String()
}

// TestCoordinatorMidStreamDisconnect: a worker that dies after
// accepting the submit (and even after streaming progress) surfaces as
// a typed transport failure once the replay budget is spent.
func TestCoordinatorMidStreamDisconnect(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		if _, _, err := readFrame(r); err != nil {
			return
		}
		// Stream one progress frame, then hang up before the result.
		writeFrame(conn, kindProgress, encodeProgress(chase.Stats{Rounds: 1}))
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var events int
	tk, err := coord.Submit(Job{Name: "torn", Progress: func(s chase.Stats) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("mid-stream disconnect err = %v, want ErrTransport", res.Err)
	}
	var se *service.Error
	if !errors.As(res.Err, &se) || se.Kind != service.KindUnavailable {
		t.Fatalf("mid-stream disconnect err = %v, want KindUnavailable", res.Err)
	}
	if events == 0 {
		t.Fatal("progress before the tear was dropped")
	}
}

// TestCoordinatorCloseFailsParkedSubmits: Submits parked on a full lane,
// or racing Close, fail typed instead of sending on a closed lane, and
// every job Close admitted still finishes. The worker holds its first job
// until every Submit has returned, so the lane stays full.
func TestCoordinatorCloseFailsParkedSubmits(t *testing.T) {
	held, gate := make(chan struct{}, 1), make(chan struct{})
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			if _, _, err := readFrame(r); err != nil {
				return
			}
			select {
			case held <- struct{}{}:
			default:
			}
			<-gate
			if err := writeError(conn, service.KindBadRequest, errors.New("refused")); err != nil {
				return
			}
		}
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	var admitted []*Ticket
	submit := func(name string) error {
		tk, err := coord.Submit(Job{Name: name})
		if err == nil {
			admitted = append(admitted, tk)
		}
		return err
	}
	// One job at the worker, then a full lane.
	for i := range laneBound + 1 {
		if err := submit(fmt.Sprint("admitted", i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-held
		}
	}
	const parked = 200
	errs := make(chan error, parked)
	var started sync.WaitGroup
	started.Add(parked)
	for i := range parked {
		go func() {
			started.Done()
			_, err := coord.Submit(Job{Name: fmt.Sprint("parked", i)})
			errs <- err
		}()
	}
	started.Wait()
	closed := make(chan struct{})
	go func() {
		coord.Close()
		close(closed)
	}()
	for range parked {
		err := <-errs
		var se *service.Error
		if !errors.Is(err, ErrCoordinatorClosed) || !errors.As(err, &se) || se.Kind != service.KindUnavailable {
			t.Fatalf("parked submit err = %v, want KindUnavailable wrapping ErrCoordinatorClosed", err)
		}
	}
	close(gate)
	for _, tk := range admitted {
		var se *service.Error
		if res := tk.Wait(); !errors.As(res.Err, &se) || se.Kind != service.KindBadRequest {
			t.Fatalf("admitted job finished with %v, want the worker's answer", res.Err)
		}
	}
	<-closed
}

// TestCoordinatorGarbageAnswer: a worker that answers with a
// non-protocol kind is a transport failure, not a hang.
func TestCoordinatorGarbageAnswer(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			if _, _, err := readFrame(r); err != nil {
				return
			}
			if err := writeFrame(conn, kindSubmit, nil); err != nil {
				return
			}
		}
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(Job{Name: "garbage"})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("garbage answer err = %v, want ErrTransport", res.Err)
	}
}

// TestCoordinatorColdPullFingerprintMismatch: a worker acking the
// cold-pull Register with the wrong fingerprint means the ontology was
// corrupted in flight; the coordinator must refuse to resubmit to it.
func TestCoordinatorColdPullFingerprintMismatch(t *testing.T) {
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
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
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
				writeFrame(conn, kindRegistered, encodeRegistered(registeredMsg{})) // zero fingerprint: wrong
			}
		}
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}, Source: local})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(Job{Name: "mismatch", Fingerprint: h.Fingerprint, Snapshot: wire.EncodeSnapshot(prog.Database)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("fingerprint mismatch err = %v, want ErrTransport", res.Err)
	}
}
