package core

import "math"

// SafeDiv returns num/den, or fallback when the quotient would not be a
// finite number (den zero, operands NaN/Inf, or an Inf/Inf form). The
// predictor's fixed-point loop (§5) must never see a NaN: math.Abs(NaN) is
// never below the convergence tolerance, so one poisoned utilisation factor
// silently burns the whole iteration budget and ships a garbage prediction.
// Division sites in the core either prove their denominator nonzero on the
// path (the nanguard analyzer checks this mechanically) or go through here.
func SafeDiv(num, den, fallback float64) float64 {
	if den == 0 {
		return fallback
	}
	q := num / den
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return fallback
	}
	return q
}

// Clamp limits x to [lo, hi]. A NaN x clamps to lo, so a poisoned value
// re-enters the legal range instead of propagating; ±Inf clamp to the
// nearest bound.
func Clamp(x, lo, hi float64) float64 {
	if !(x >= lo) { // catches x < lo and NaN
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
