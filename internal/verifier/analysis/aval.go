package analysis

import (
	"fmt"
	"math"
)

// Kind classifies an abstract value in the range analysis.
type Kind uint8

// Abstract value kinds.
const (
	// KTop is an unknown value.
	KTop Kind = iota
	// KConst is a known absolute interval [Lo, Hi]. Constants are never
	// provably inside a domain (the paper's Figure 4 rejects direct
	// memory offsets because "no fixed addresses can be assumed to be
	// within a domain").
	KConst
	// KDPtr is a data-region-relative interval: the value lies in
	// [D.begin+Lo, D.end-1+Hi]. The two offsets are relative to the two
	// ends of the data region, so facts proven by bound checks
	// generalize to any actual data-region size.
	KDPtr
)

// AVal is an abstract value of the cfi_label-aware range analysis (§4.3).
type AVal struct {
	K      Kind
	Lo, Hi int64
}

// Top is the unknown abstract value.
var Top = AVal{K: KTop}

// Const returns the abstract constant interval [lo, hi].
func Const(lo, hi int64) AVal { return AVal{K: KConst, Lo: lo, Hi: hi} }

// DPtr returns the data-relative interval: a value known to lie within
// [D.begin+lo, D.end-1+hi].
func DPtr(lo, hi int64) AVal { return AVal{K: KDPtr, Lo: lo, Hi: hi} }

// String renders the value for diagnostics.
func (v AVal) String() string {
	switch v.K {
	case KTop:
		return "⊤"
	case KConst:
		return fmt.Sprintf("const[%d,%d]", v.Lo, v.Hi)
	case KDPtr:
		return fmt.Sprintf("D[begin%+d,end%+d]", v.Lo, v.Hi)
	}
	return "?"
}

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// AddConst shifts v by the constant interval [lo, hi]. The result is Top on
// overflow or when v is not shiftable.
func (v AVal) AddConst(lo, hi int64) AVal {
	switch v.K {
	case KConst, KDPtr:
		nlo, ok1 := satAdd(v.Lo, lo)
		nhi, ok2 := satAdd(v.Hi, hi)
		if !ok1 || !ok2 {
			return Top
		}
		return AVal{K: v.K, Lo: nlo, Hi: nhi}
	}
	return Top
}

// Add computes the abstract sum of two values. DPtr+Const keeps the
// data-relative form; Const+Const stays constant; anything else is Top
// (in particular DPtr+DPtr: the sum of two pointers is meaningless).
func (v AVal) Add(o AVal) AVal {
	switch {
	case v.K == KConst && o.K == KConst:
		return o.AddConst(v.Lo, v.Hi)
	case v.K == KDPtr && o.K == KConst:
		return v.AddConst(o.Lo, o.Hi)
	case v.K == KConst && o.K == KDPtr:
		return o.AddConst(v.Lo, v.Hi)
	}
	return Top
}

// Sub computes v - o.
func (v AVal) Sub(o AVal) AVal {
	if o.K != KConst {
		return Top
	}
	neg := Const(-o.Hi, -o.Lo)
	if o.Hi == math.MinInt64 || o.Lo == math.MinInt64 {
		return Top
	}
	return v.Add(neg)
}

// MulConst multiplies a constant interval by a non-negative scale.
func (v AVal) MulConst(k int64) AVal {
	if v.K != KConst || k < 0 {
		return Top
	}
	lo, hi := v.Lo*k, v.Hi*k
	if k != 0 && (lo/k != v.Lo || hi/k != v.Hi) {
		return Top
	}
	return Const(lo, hi)
}

// Join computes the least upper bound of two abstract values, widening to
// Top when the joined interval grows beyond widenLimit (which guarantees
// analysis termination).
//
// The widening rule differs by kind. For constants, Hi-Lo is the interval
// width. For DPtr values, Lo and Hi are measured from *different ends* of
// the data region, so Hi-Lo is not a width (a tight value such as a
// static-data address has Hi far below Lo); instead each offset is capped
// at the widen limit, which is all the access check ever needs (it only
// compares the offsets against the guard size).
func (v AVal) Join(o AVal, widenLimit int64) AVal {
	if v == o {
		return v
	}
	if v.K != o.K || v.K == KTop {
		return Top
	}
	lo, hi := min64(v.Lo, o.Lo), max64(v.Hi, o.Hi)
	switch v.K {
	case KConst:
		if hi-lo < 0 || hi-lo > widenLimit {
			return Top
		}
	case KDPtr:
		if lo < -widenLimit || hi > widenLimit {
			return Top
		}
	}
	return AVal{K: v.K, Lo: lo, Hi: hi}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
