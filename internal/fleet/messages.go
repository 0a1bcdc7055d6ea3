package fleet

import (
	"math"
	"time"

	"repro/internal/chase"
	"repro/internal/codec"
	"repro/internal/compile"
	"repro/internal/qos"
	"repro/internal/service"
)

// registerMsg ships Σ to a cold worker as dlgp text — the same
// canonical rendering parser.FormatRules pins with a parse→format
// fixpoint, so registering the shipped text reproduces the fingerprint
// of the original set. Bounds piggybacks the ontology's learned
// termination bounds (qos.EncodeBounds blob, empty when none were
// profiled) so a cold worker can serve bounded-mode jobs without its
// own reference run.
type registerMsg struct {
	Rules  string
	Bounds []byte
}

// registeredMsg acks a Register with the fingerprint the worker
// computed over the received clauses.
type registeredMsg struct {
	Fingerprint compile.Fingerprint
}

// submitMsg is one fingerprint-addressed chase job: exactly the
// at-rest subset of service.ChaseRequest, with the database as a wire
// snapshot plus deltas.
type submitMsg struct {
	Name     string
	Tenant   string
	Priority service.Priority
	// Fingerprint addresses the worker-side registered ontology.
	Fingerprint compile.Fingerprint
	Variant     chase.Variant
	MaxAtoms    int
	MaxRounds   int
	Workers     int
	// QoS carries the request's serving policy: the mode byte, the
	// anytime deadline (nanoseconds) and round quota as varints, and the
	// learn bit folded into the submit flags.
	QoS qos.Policy
	// Flags.
	RecordDerivation bool
	TrackForest      bool
	NoSemiNaive      bool
	// WantProgress asks the worker to stream Progress frames before the
	// Result.
	WantProgress bool

	Snapshot []byte
	Deltas   [][]byte
}

// resultMsg is a finished job: the materialized instance as a wire
// snapshot, the engine statistics, and — when the job recorded its
// derivation — the deterministic derivation rendering, which the
// coordinator side compares byte-for-byte against in-process runs.
// Source names the budget that stopped a truncated run (meaningful
// only when Terminated is false), so the coordinator's truncation
// marker matches the in-process one byte for byte.
type resultMsg struct {
	Terminated bool
	Stats      chase.Stats
	Source     qos.Source
	Snapshot   []byte
	Derivation string
}

// errorMsg is a typed failure: the service taxonomy name as the code
// (ErrorKind.String / ParseErrorKind) plus the rendered cause.
type errorMsg struct {
	Code    string
	Message string
}

// Submit flag bits.
const (
	flagRecordDerivation = 1 << iota
	flagTrackForest
	flagNoSemiNaive
	flagWantProgress
	flagLearnBound
)

// Result flag bits.
const flagTerminated = 1

// writeStats writes the full chase.Stats in field order.
func writeStats(w *codec.Writer, s chase.Stats) {
	for _, v := range statsFields(&s) {
		w.Uint(uint64(*v))
	}
}

// readStats reads what writeStats wrote.
func readStats(r *codec.Reader) (chase.Stats, error) {
	var s chase.Stats
	for _, f := range statsFields(&s) {
		v, err := r.Value("stats field")
		if err != nil {
			return s, err
		}
		*f = v
	}
	return s, nil
}

// statsFields enumerates the Stats fields in their one wire order.
func statsFields(s *chase.Stats) [10]*int {
	return [10]*int{
		&s.InitialAtoms, &s.Atoms, &s.Rounds,
		&s.TriggersConsidered, &s.TriggersFired,
		&s.Nulls, &s.MaxDepth,
		&s.CompileHits, &s.CompileMisses, &s.ArenaBlocks,
	}
}

// readFingerprint reads a raw compile fingerprint.
func readFingerprint(r *codec.Reader) (compile.Fingerprint, error) {
	var fp compile.Fingerprint
	b, err := r.Raw(len(fp), "fingerprint")
	copy(fp[:], b)
	return fp, err
}

func encodeRegister(m registerMsg) []byte {
	var w codec.Writer
	w.Str(m.Rules)
	w.Blob(m.Bounds)
	return w.Bytes()
}

func decodeRegister(body []byte) (registerMsg, error) {
	r := codec.NewReader(body, ErrFrame)
	var m registerMsg
	var err error
	if m.Rules, err = r.Str("rules"); err != nil {
		return registerMsg{}, err
	}
	if m.Bounds, err = r.Blob("bounds"); err != nil {
		return registerMsg{}, err
	}
	if len(m.Bounds) == 0 {
		m.Bounds = nil
	}
	return m, r.Done()
}

func encodeRegistered(m registeredMsg) []byte {
	var w codec.Writer
	w.Raw(m.Fingerprint[:])
	return w.Bytes()
}

func decodeRegistered(body []byte) (registeredMsg, error) {
	r := codec.NewReader(body, ErrFrame)
	fp, err := readFingerprint(r)
	if err != nil {
		return registeredMsg{}, err
	}
	return registeredMsg{Fingerprint: fp}, r.Done()
}

func encodeSubmit(m submitMsg) []byte {
	var w codec.Writer
	w.Str(m.Name)
	w.Str(m.Tenant)
	w.Int(int64(m.Priority))
	w.Raw(m.Fingerprint[:])
	w.Byte(byte(m.Variant))
	w.Uint(uint64(m.MaxAtoms))
	w.Uint(uint64(m.MaxRounds))
	w.Uint(uint64(m.Workers))
	w.Byte(byte(m.QoS.Mode))
	w.Uint(uint64(m.QoS.Deadline))
	w.Uint(uint64(m.QoS.Rounds))
	var flags byte
	if m.QoS.Learn {
		flags |= flagLearnBound
	}
	if m.RecordDerivation {
		flags |= flagRecordDerivation
	}
	if m.TrackForest {
		flags |= flagTrackForest
	}
	if m.NoSemiNaive {
		flags |= flagNoSemiNaive
	}
	if m.WantProgress {
		flags |= flagWantProgress
	}
	w.Byte(flags)
	w.Blob(m.Snapshot)
	w.Uint(uint64(len(m.Deltas)))
	for _, d := range m.Deltas {
		w.Blob(d)
	}
	return w.Bytes()
}

func decodeSubmit(body []byte) (submitMsg, error) {
	r := codec.NewReader(body, ErrFrame)
	var m submitMsg
	var err error
	if m.Name, err = r.Str("name"); err != nil {
		return m, err
	}
	if m.Tenant, err = r.Str("tenant"); err != nil {
		return m, err
	}
	prio, err := r.Int("priority")
	if err != nil {
		return m, err
	}
	m.Priority = service.Priority(prio)
	if m.Fingerprint, err = readFingerprint(r); err != nil {
		return m, err
	}
	variant, err := r.Byte("variant")
	if err != nil {
		return m, err
	}
	switch chase.Variant(variant) {
	case chase.SemiOblivious, chase.Oblivious, chase.Restricted:
		m.Variant = chase.Variant(variant)
	default:
		return m, r.Errorf("unknown chase variant %d", variant)
	}
	if m.MaxAtoms, err = r.Value("maxAtoms"); err != nil {
		return m, err
	}
	if m.MaxRounds, err = r.Value("maxRounds"); err != nil {
		return m, err
	}
	if m.Workers, err = r.Value("workers"); err != nil {
		return m, err
	}
	mode, err := r.Byte("qos mode")
	if err != nil {
		return m, err
	}
	if mode > byte(qos.Anytime) {
		return m, r.Errorf("unknown QoS mode %d", mode)
	}
	m.QoS.Mode = qos.Mode(mode)
	deadline, err := r.Uint("qos deadline")
	if err != nil {
		return m, err
	}
	if deadline > math.MaxInt64 {
		return m, r.Errorf("QoS deadline %d out of range", deadline)
	}
	m.QoS.Deadline = time.Duration(deadline)
	if m.QoS.Rounds, err = r.Value("qos rounds"); err != nil {
		return m, err
	}
	flags, err := r.Byte("flags")
	if err != nil {
		return m, err
	}
	if flags&^(flagRecordDerivation|flagTrackForest|flagNoSemiNaive|flagWantProgress|flagLearnBound) != 0 {
		return m, r.Errorf("unknown submit flags %#x", flags)
	}
	m.QoS.Learn = flags&flagLearnBound != 0
	m.RecordDerivation = flags&flagRecordDerivation != 0
	m.TrackForest = flags&flagTrackForest != 0
	m.NoSemiNaive = flags&flagNoSemiNaive != 0
	m.WantProgress = flags&flagWantProgress != 0
	if m.Snapshot, err = r.Blob("snapshot"); err != nil {
		return m, err
	}
	n, err := r.Len("delta count")
	if err != nil {
		return m, err
	}
	for i := 0; i < n; i++ {
		d, err := r.Blob("delta")
		if err != nil {
			return m, err
		}
		m.Deltas = append(m.Deltas, d)
	}
	return m, r.Done()
}

func encodeProgress(s chase.Stats) []byte {
	var w codec.Writer
	writeStats(&w, s)
	return w.Bytes()
}

func decodeProgress(body []byte) (chase.Stats, error) {
	r := codec.NewReader(body, ErrFrame)
	s, err := readStats(r)
	if err != nil {
		return s, err
	}
	return s, r.Done()
}

func encodeResult(m resultMsg) []byte {
	var w codec.Writer
	var flags byte
	if m.Terminated {
		flags |= flagTerminated
	}
	w.Byte(flags)
	w.Byte(byte(m.Source))
	writeStats(&w, m.Stats)
	w.Blob(m.Snapshot)
	w.Str(m.Derivation)
	return w.Bytes()
}

func decodeResult(body []byte) (resultMsg, error) {
	r := codec.NewReader(body, ErrFrame)
	var m resultMsg
	flags, err := r.Byte("flags")
	if err != nil {
		return m, err
	}
	if flags&^flagTerminated != 0 {
		return m, r.Errorf("unknown result flags %#x", flags)
	}
	m.Terminated = flags&flagTerminated != 0
	source, err := r.Byte("budget source")
	if err != nil {
		return m, err
	}
	if source > byte(qos.SourceLearnedBound) {
		return m, r.Errorf("unknown budget source %d", source)
	}
	m.Source = qos.Source(source)
	if m.Stats, err = readStats(r); err != nil {
		return m, err
	}
	if m.Snapshot, err = r.Blob("snapshot"); err != nil {
		return m, err
	}
	if m.Derivation, err = r.Str("derivation"); err != nil {
		return m, err
	}
	return m, r.Done()
}

func encodeError(m errorMsg) []byte {
	var w codec.Writer
	w.Str(m.Code)
	w.Str(m.Message)
	return w.Bytes()
}

func decodeError(body []byte) (errorMsg, error) {
	r := codec.NewReader(body, ErrFrame)
	var m errorMsg
	var err error
	if m.Code, err = r.Str("code"); err != nil {
		return m, err
	}
	if m.Message, err = r.Str("message"); err != nil {
		return m, err
	}
	return m, r.Done()
}
