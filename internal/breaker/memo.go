package breaker

import (
	"math"
	"time"

	"dcsprint/internal/units"
)

// Memo caches the last trip-curve evaluation of each kind a breaker makes,
// keyed on the exact bits of every input the evaluation reads. A power tree
// hands one Memo to all of its breakers (UseMemo), so breakers in the same
// thermal state under the same load — the homogeneous PDU groups of the
// paper's facility — pay for one math.Pow between them, and the controller's
// repeated reserve queries within a tick pay for none.
//
// A Memo is a cache, not state: a hit returns the identical float64 the
// evaluation would compute, so results never depend on whether it is warm.
// Snapshots omit it and a restored breaker starts cold. The zero value is
// ready to use; a Memo is not safe for concurrent use, so it must not be
// shared across goroutines (or engines).
type Memo struct {
	// Trip-curve inverse: ratioFor(invAcc, invD, invCurve).
	invAcc   float64
	invD     time.Duration
	invCurve TripCurve
	invRatio float64
	haveInv  bool

	// Forward curve: tripCurve.TripTime(tripR).Seconds() for a long-delay
	// ratio.
	tripR     float64
	tripCurve TripCurve
	tripSecs  float64
	haveTrip  bool
}

func curveDiff(a, b TripCurve) uint64 {
	return units.BitDiff(a.A, b.A) | units.BitDiff(a.B, b.B) | units.BitDiff(a.Instantaneous, b.Instantaneous)
}

// ratio returns ratioFor(acc, d, c), reusing the last answer when every
// input is bit-identical. A nil Memo computes directly.
func (m *Memo) ratio(acc float64, d time.Duration, c TripCurve) float64 {
	if m == nil {
		return ratioFor(acc, d, c)
	}
	if !m.haveInv || d != m.invD || units.BitDiff(acc, m.invAcc)|curveDiff(c, m.invCurve) != 0 {
		m.invAcc, m.invD, m.invCurve = acc, d, c
		m.invRatio, m.haveInv = ratioFor(acc, d, c), true
	}
	return m.invRatio
}

// tripSeconds returns c.TripTime(r) in seconds for a ratio inside the
// long-delay region, reusing the last answer for bit-identical inputs.
func (m *Memo) tripSeconds(r float64, c TripCurve) float64 {
	if m == nil {
		t, _ := c.TripTime(r)
		return t.Seconds()
	}
	if !m.haveTrip || units.BitDiff(r, m.tripR)|curveDiff(c, m.tripCurve) != 0 {
		t, _ := c.TripTime(r)
		m.tripR, m.tripCurve = r, c
		m.tripSecs, m.haveTrip = t.Seconds(), true
	}
	return m.tripSecs
}

// ratioFor is the largest overload ratio a breaker with thermal accumulator
// acc sustains for at least d: the curve inverse behind MaxLoadFor, which
// scales it by the rating. It is 1 (the rating itself) when no overload is
// tolerable.
func ratioFor(acc float64, d time.Duration, c TripCurve) float64 {
	headroom := 1 - acc
	if headroom <= 0 {
		return 1
	}
	if d <= 0 {
		d = time.Nanosecond
	}
	// Need (1-acc) * T(r) >= d, i.e. T(r) >= d/(1-acc). Guard against a
	// near-exhausted accumulator overflowing the duration conversion.
	effSecs := d.Seconds() / headroom
	const maxSecs = float64(math.MaxInt64) / float64(time.Second)
	if effSecs >= maxSecs {
		return 1
	}
	r := c.OverloadFor(time.Duration(effSecs * float64(time.Second)))
	if r < 1 {
		r = 1
	}
	return r
}
