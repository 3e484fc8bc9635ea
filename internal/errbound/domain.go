package errbound

import "math"

// aval abstracts one 64-bit location with two coupled views.
//
// The float view says: if the bits are read as a float64, the value is
// NaN only if mayNaN, and otherwise lies in [lo, hi] and is an integer
// multiple of grid (grid 0 = no grid known). An empty interval
// (lo > hi) with mayNaN false means the location is never read as a
// float on any feasible path.
//
// The int view says: read as an int64, the value lies in [ilo, ihi]
// (iTop = unknown). Conversions between the views happen only at the
// bit-movement boundaries (MOVQ, LOAD/STORE of float cells) and only
// when one view pins the exact bit pattern (a singleton).
//
// sym is a degenerate affine form — a single shared noise symbol: two
// avals with the same nonzero sym hold the same concrete value (negated
// when symNeg differs). It is minted per load from a memory-cell
// generation, so it is only ever equal for loads with no intervening
// store; that is exactly the correlation the hl compiler's x-x,
// negation, and abs patterns need.
//
// acc marks additive accumulator provenance: the value was loaded from
// cell acc and has since only had addends folded in, their sum lying in
// [accLo, accHi]. Stores of such values are the accumulator writes the
// clamp inference in analyze.go keys on.
//
// src is the instruction index that produced the float value (-1 when
// unknown or joined from different producers); verdict reports chain it
// into the binding error path.
type aval struct {
	lo, hi float64
	grid   float64
	mayNaN bool

	sym    uint64
	symNeg bool

	acc          int32
	accLo, accHi float64
	accN         int32

	src int32

	ilo, ihi int64
	iTop     bool
}

// topF is the unconstrained float view.
func (v *aval) topF() {
	v.lo, v.hi = math.Inf(-1), math.Inf(1)
	v.grid = 0
	v.mayNaN = true
	v.sym, v.symNeg = 0, false
	v.acc = -1
	v.src = -1
}

// topI is the unconstrained int view.
func (v *aval) topI() {
	v.ilo, v.ihi = math.MinInt64, math.MaxInt64
	v.iTop = true
}

func top() aval {
	var v aval
	v.topF()
	v.topI()
	return v
}

// fromBits abstracts a location holding exactly the given 64 bits.
func fromBits(bits uint64, src int32) aval {
	var v aval
	v.ilo, v.ihi = int64(bits), int64(bits)
	v.iTop = false
	f := math.Float64frombits(bits)
	if math.IsNaN(f) {
		v.mayNaN = true
		v.lo, v.hi = math.Inf(1), math.Inf(-1) // empty: the value IS NaN
		v.grid = 0
	} else {
		v.lo, v.hi = f, f
		v.grid = gridOf(f)
	}
	v.acc = -1
	v.src = src
	return v
}

// fromF64 abstracts a float location holding exactly v (int view follows
// the bit pattern).
func fromF64(f float64, src int32) aval {
	return fromBits(math.Float64bits(f), src)
}

// fromIRange abstracts an integer location in [lo, hi]; the float view
// is pinned only for singletons (exact bits known).
func fromIRange(lo, hi int64, src int32) aval {
	if lo == hi {
		return fromBits(uint64(lo), src)
	}
	var v aval
	v.topF()
	v.ilo, v.ihi = lo, hi
	v.src = src
	return v
}

// singleton reports whether the float view pins one non-NaN value.
func (v *aval) singleton() (float64, bool) {
	if !v.mayNaN && v.lo == v.hi && !math.IsInf(v.lo, 0) {
		return v.lo, true
	}
	return 0, false
}

// emptyF reports an empty float interval (value never read as float, or
// always NaN when mayNaN).
func (v *aval) emptyF() bool { return v.lo > v.hi }

// hasInf reports whether the float view admits an infinite value.
func (v *aval) hasInf() bool {
	return !v.emptyF() && (math.IsInf(v.lo, 0) || math.IsInf(v.hi, 0))
}

// maxAbs is the largest magnitude the float view admits (0 for empty).
func (v *aval) maxAbs() float64 {
	if v.emptyF() {
		return 0
	}
	return math.Max(math.Abs(v.lo), math.Abs(v.hi))
}

// exactlyRepresentable reports whether every value the float view admits
// round-trips through format f without changing a bit: no NaN, on a
// grid the format carries, and within the significand's reach on that
// grid. This is the core predicate every exactness verdict reduces to.
func (v *aval) exactlyRepresentable(f Format) bool {
	if v.mayNaN {
		return false
	}
	if v.emptyF() {
		return true // vacuous: never read as a float
	}
	if lone, ok := v.singleton(); ok {
		return f.Lossless(lone)
	}
	if v.grid <= 0 || v.grid < f.MinGrid {
		return false
	}
	m := v.maxAbs()
	return m <= v.grid*f.maxMult() && m <= f.MaxMag
}

// join merges b into v (least upper bound), reporting change.
func (v *aval) join(b *aval) bool {
	changed := false
	// Float interval hull; empty intervals are identities.
	if b.emptyF() {
		// nothing
	} else if v.emptyF() {
		if v.lo != b.lo || v.hi != b.hi {
			v.lo, v.hi = b.lo, b.hi
			changed = true
		}
	} else {
		if b.lo < v.lo {
			v.lo = b.lo
			changed = true
		}
		if b.hi > v.hi {
			v.hi = b.hi
			changed = true
		}
	}
	if b.mayNaN && !v.mayNaN {
		v.mayNaN = true
		changed = true
	}
	if g := math.Min(v.grid, b.grid); g != v.grid {
		v.grid = g
		changed = true
	}
	if v.sym != b.sym || v.symNeg != b.symNeg {
		if v.sym != 0 {
			v.sym, v.symNeg = 0, false
			changed = true
		}
	}
	if v.acc != b.acc {
		if v.acc != -1 {
			v.acc = -1
			changed = true
		}
	} else if v.acc >= 0 {
		if b.accLo < v.accLo {
			v.accLo = b.accLo
			changed = true
		}
		if b.accHi > v.accHi {
			v.accHi = b.accHi
			changed = true
		}
		if b.accN > v.accN {
			v.accN = b.accN
			changed = true
		}
	}
	if v.src != b.src && v.src != -1 {
		v.src = -1
		changed = true
	}
	// Int view.
	if b.iTop && !v.iTop {
		v.topI()
		changed = true
	} else if !v.iTop {
		if b.ilo < v.ilo {
			v.ilo = b.ilo
			changed = true
		}
		if b.ihi > v.ihi {
			v.ihi = b.ihi
			changed = true
		}
	}
	return changed
}

// Widening threshold ladders. Endpoints jump outward to the next rung,
// guaranteeing finite ascending chains once widening starts.
var fThresholds = []float64{0, 1, 2, 1024, 65536, 0x1p24, 0x1p31, 0x1p53, 1e100, math.Inf(1)}

var iThresholds = []int64{0, 1, 2, 1024, 65536, 1 << 24, 1 << 31, 1 << 53, math.MaxInt64}

func widenLoF(x float64) float64 {
	for i := len(fThresholds) - 1; i >= 0; i-- {
		if -fThresholds[i] <= x {
			return -fThresholds[i]
		}
	}
	return math.Inf(-1)
}

func widenHiF(x float64) float64 {
	for _, t := range fThresholds {
		if t >= x {
			return t
		}
	}
	return math.Inf(1)
}

func widenLoI(x int64) int64 {
	for i := len(iThresholds) - 1; i >= 0; i-- {
		if t := iThresholds[i]; t != math.MaxInt64 && -t <= x {
			return -t
		}
	}
	return math.MinInt64
}

func widenHiI(x int64) int64 {
	for _, t := range iThresholds {
		if t >= x {
			return t
		}
	}
	return math.MaxInt64
}

// widen accelerates v relative to its previous value at the same anchor:
// any endpoint that moved jumps to the next threshold, and a grid that
// shrank collapses to unknown (grids descend forever otherwise).
func (v *aval) widen(prev *aval) {
	if !v.emptyF() && !prev.emptyF() {
		if v.lo < prev.lo {
			v.lo = widenLoF(v.lo)
		}
		if v.hi > prev.hi {
			v.hi = widenHiF(v.hi)
		}
	}
	if v.grid < prev.grid {
		v.grid = 0
	}
	if !v.iTop && !prev.iTop {
		if v.ilo < prev.ilo {
			v.ilo = widenLoI(v.ilo)
		}
		if v.ihi > prev.ihi {
			v.ihi = widenHiI(v.ihi)
		}
	}
}

// nextDown/nextUp nudge an endpoint outward by one ulp — used where a
// library function is not trusted to be correctly rounded.
func nextDown(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
func nextUp(x float64) float64   { return math.Nextafter(x, math.Inf(1)) }

// outward widens both endpoints by n ulps.
func outward(lo, hi float64, n int) (float64, float64) {
	for i := 0; i < n; i++ {
		lo, hi = nextDown(lo), nextUp(hi)
	}
	return lo, hi
}

// gridMul multiplies two grids, collapsing to unknown on over/underflow.
func gridMul(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	g := a * b
	if g == 0 || math.IsInf(g, 0) {
		return 0
	}
	if g > hugeGrid {
		return hugeGrid
	}
	return g
}

// gridMin joins two grids (a value on both grids is on the coarser one).
func gridMin(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Min(a, b)
}
