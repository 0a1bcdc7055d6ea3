package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/qos"
	rt "repro/internal/runtime"
	"repro/internal/wire"
)

// ErrUnknownOntology is returned when a request addresses an ontology by
// a fingerprint that was never registered. It is the service's "cold worker" signal: the submitter must
// ship Σ itself (RegisterOntology) before submitting by fingerprint
// again. Like every sentinel that crosses the service boundary it
// arrives wrapped in a *Error — test with errors.Is, never ==.
var ErrUnknownOntology = errors.New("service: unknown ontology fingerprint")

// ErrorKind is the service's error taxonomy: the coarse classification a
// transport maps onto its status codes, and a caller dispatches on
// without string-matching. The underlying cause is always preserved
// through Unwrap, so errors.Is reaches the sentinels (ErrUnknownOntology,
// runtime.ErrSchedulerClosed, wire.ErrCorrupt, ...).
type ErrorKind int

const (
	// KindInternal is an unclassified failure inside the job.
	KindInternal ErrorKind = iota
	// KindBadRequest is a malformed envelope: missing database or
	// ontology, unknown variant/method/experiment, invalid option
	// combination.
	KindBadRequest
	// KindUnknownOntology is a fingerprint-addressed request for an
	// unregistered ontology (wraps ErrUnknownOntology).
	KindUnknownOntology
	// KindDecode is a payload or checkpoint artifact that failed to
	// decode (wraps wire.ErrCorrupt or checkpoint.ErrCorrupt).
	KindDecode
	// KindUnavailable is a submission to a closed service (wraps
	// runtime.ErrSchedulerClosed), or a job that ran out of null ids
	// (wraps logic.ErrNullIDsExhausted).
	KindUnavailable
	// KindCanceled is a job preempted through its context or Cancel.
	KindCanceled
)

// String returns the taxonomy name of the kind.
func (k ErrorKind) String() string {
	switch k {
	case KindBadRequest:
		return "bad-request"
	case KindUnknownOntology:
		return "unknown-ontology"
	case KindDecode:
		return "decode"
	case KindUnavailable:
		return "unavailable"
	case KindCanceled:
		return "canceled"
	default:
		return "internal"
	}
}

// ParseErrorKind parses a taxonomy name as rendered by ErrorKind.String
// — the form that crosses process boundaries as a wire error code. The
// ok result is false for names outside the taxonomy, which a transport
// should fold into KindInternal rather than drop.
func ParseErrorKind(s string) (ErrorKind, bool) {
	switch s {
	case "bad-request":
		return KindBadRequest, true
	case "unknown-ontology":
		return KindUnknownOntology, true
	case "decode":
		return KindDecode, true
	case "unavailable":
		return KindUnavailable, true
	case "canceled":
		return KindCanceled, true
	case "internal":
		return KindInternal, true
	default:
		return KindInternal, false
	}
}

// Error is the service's typed error envelope: every error a Submit or a
// Result carries is one of these, holding the taxonomy kind, the
// operation and job it belongs to, and the underlying cause (reachable
// via errors.Is/errors.As through Unwrap).
type Error struct {
	Kind ErrorKind
	Op   Op
	Name string
	Err  error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("service: %s %q [%s]: %v", e.Op, e.Name, e.Kind, e.Err)
}

// Unwrap exposes the cause, making the sentinels wrap-checkable across
// the service boundary.
func (e *Error) Unwrap() error { return e.Err }

// wrapErr builds the typed envelope, classifying err when the caller has
// no more specific kind than KindInternal.
func wrapErr(op Op, name string, kind ErrorKind, err error) *Error {
	if kind == KindInternal {
		kind = classify(err)
	}
	return &Error{Kind: kind, Op: op, Name: name, Err: err}
}

// classify maps known causes to their taxonomy kind.
func classify(err error) ErrorKind {
	switch {
	case errors.Is(err, ErrUnknownOntology):
		return KindUnknownOntology
	case errors.Is(err, rt.ErrSchedulerClosed), errors.Is(err, logic.ErrNullIDsExhausted):
		return KindUnavailable
	case errors.Is(err, wire.ErrCorrupt), errors.Is(err, checkpoint.ErrCorrupt):
		return KindDecode
	case errors.Is(err, checkpoint.ErrMismatch), errors.Is(err, checkpoint.ErrNotResumable),
		errors.Is(err, qos.ErrNoLearnedBound), errors.Is(err, core.ErrUnboundedNaive):
		return KindBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return KindCanceled
	default:
		return KindInternal
	}
}
