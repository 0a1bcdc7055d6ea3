// Package core implements the paper's primary contribution: deciding
// non-uniform semi-oblivious chase termination, ChTrm(C), for the classes
// C ∈ {SL, L, G}, via the characterizations of Theorems 6.4, 7.5 and 8.3,
// together with the depth bounds d_C and size bounds f_C of Section 5, the
// naive chase-based decision procedure, and the UCQ-based data-complexity
// procedures of Theorems 6.6 and 7.7.
package core

import (
	"math"
	"math/big"

	"repro/internal/tgds"
)

// maxMaterializedBits bounds the size of materialized f_C values; bounds
// whose bit length exceeds it are reported symbolically via Log2 only.
const maxMaterializedBits = 1 << 22

// Bounds carries the database-independent depth bound d_C(Σ) and the
// per-database-atom size bound f_C(Σ) for a set Σ in class C, so that
// Σ ∈ CT_D implies maxdepth(D, Σ) ≤ d_C(Σ) and
// |chase(D, Σ)| ≤ |D| · f_C(Σ).
type Bounds struct {
	Class tgds.Class
	// Depth is d_C(Σ). It is always materialized (its bit length is
	// polynomial in ‖Σ‖ even for guarded sets).
	Depth *big.Int
	// Size is f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1)), or nil when
	// the value is too large to materialize; Log2Size is always set.
	Size *big.Int
	// Log2Size is log₂ f_C(Σ) (0 when f_C(Σ) = 0, i.e. the empty set).
	Log2Size float64
}

// DepthBound returns d_C(Σ) for the given class per Section 5:
//
//	d_SL(Σ) = |sch(Σ)| · ar(Σ)
//	d_L(Σ)  = |sch(Σ)| · ar(Σ)^(ar(Σ)+1)
//	d_G(Σ)  = |sch(Σ)| · ar(Σ)^(2·ar(Σ)+1) · 2^(|sch(Σ)|·ar(Σ)^ar(Σ))
func DepthBound(sigma *tgds.Set, class tgds.Class) *big.Int {
	sch := int64(len(sigma.Schema()))
	ar := int64(sigma.Arity())
	if sch == 0 || ar == 0 {
		return big.NewInt(0)
	}
	bSch := big.NewInt(sch)
	bAr := big.NewInt(ar)
	switch class {
	case tgds.ClassSL:
		return new(big.Int).Mul(bSch, bAr)
	case tgds.ClassL:
		p := new(big.Int).Exp(bAr, big.NewInt(ar+1), nil)
		return p.Mul(p, bSch)
	default:
		p := new(big.Int).Exp(bAr, big.NewInt(2*ar+1), nil)
		p.Mul(p, bSch)
		inner := new(big.Int).Exp(bAr, bAr, nil)
		inner.Mul(inner, bSch)
		// 2^(sch·ar^ar); the exponent fits an int64 for any realistic Σ
		// (it is checked below).
		if !inner.IsInt64() || inner.Int64() > maxMaterializedBits {
			// Saturate: the depth bound itself is astronomically large;
			// return 2^maxMaterializedBits as a representable upper proxy.
			inner = big.NewInt(maxMaterializedBits)
		}
		pow := new(big.Int).Lsh(big.NewInt(1), uint(inner.Int64()))
		return p.Mul(p, pow)
	}
}

// SizeBound returns the Bounds (depth and size) for Σ in the given class:
// f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1)).
func SizeBound(sigma *tgds.Set, class tgds.Class) Bounds {
	d := DepthBound(sigma, class)
	b := Bounds{Class: class, Depth: d}
	norm := int64(sigma.Norm())
	ar := int64(sigma.Arity())
	if norm == 0 || ar == 0 {
		b.Size = big.NewInt(0)
		return b
	}
	dPlus := new(big.Int).Add(d, big.NewInt(1))
	exp := new(big.Int).Mul(big.NewInt(2*ar), dPlus)
	log2Norm := math.Log2(float64(norm))
	// log2(f) = log2(d+1) + exp·log2(norm)
	b.Log2Size = math.Log2(float64FromBig(dPlus)) + float64FromBig(exp)*log2Norm
	if exp.IsInt64() {
		bits := float64(exp.Int64()) * log2Norm
		if bits <= maxMaterializedBits {
			size := new(big.Int).Exp(big.NewInt(norm), exp, nil)
			size.Mul(size, dPlus)
			b.Size = size
		}
	}
	return b
}

// float64FromBig converts a big.Int to float64, saturating to +Inf.
func float64FromBig(x *big.Int) float64 {
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}

// NaiveBudget returns the naive decision procedure's atom budget
// |D|·f_C(Σ) clamped to cap (cap <= 0 means no clamp). The second result
// reports whether the returned budget equals the exact bound (so
// exceeding it certifies an infinite chase) rather than the cap. A bound
// that is not materialized or exceeds MaxInt32 atoms yields the cap — so
// with no cap, an inexact budget <= 0, which DecideNaive refuses.
func NaiveBudget(dbSize int, b Bounds, cap int) (int, bool) {
	if b.Size == nil {
		return cap, false
	}
	exact := new(big.Int).Mul(b.Size, big.NewInt(int64(dbSize)))
	if exact.Cmp(big.NewInt(math.MaxInt32)) > 0 || (cap > 0 && exact.Cmp(big.NewInt(int64(cap))) > 0) {
		return cap, false
	}
	return int(exact.Int64()), true
}
