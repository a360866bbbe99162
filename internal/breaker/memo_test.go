package breaker

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/units"
)

// twin is a memoized breaker and an unmemoized one driven through the same
// calls; every answer of the first must be bit-identical to the second's.
type twin struct {
	t           *testing.T
	memo, plain *Breaker
}

func newTwin(t *testing.T, m *Memo, rated units.Watts) twin {
	t.Helper()
	memo, err := New("memo", rated, Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New("plain", rated, Bulletin1489A())
	if err != nil {
		t.Fatal(err)
	}
	memo.UseMemo(m)
	return twin{t: t, memo: memo, plain: plain}
}

func (w twin) both(f func(*Breaker)) {
	f(w.memo)
	f(w.plain)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares every memoized evaluation: the curve inverse
// (MaxLoadFor) and the forward curve and cooling step (one Step at a load
// above and one below the rating, on copies so the twins' own state is
// untouched). Every check asks the same questions, so a memo that missed a
// mutation would serve the previous check's answer.
func (w twin) check(when string) {
	w.t.Helper()
	w.checkReserve(when, time.Minute)
	for _, frac := range []float64{1.4, 0.5} {
		mc, pc := *w.memo, *w.plain
		load := units.Watts(frac) * w.plain.Rated
		errM, errP := mc.Step(load, time.Second), pc.Step(load, time.Second)
		if !sameBits(mc.Accumulator(), pc.Accumulator()) || (errM == nil) != (errP == nil) {
			w.t.Fatalf("%s: Step at %v: accumulator %v (err %v) memoized, %v (err %v) direct",
				when, load, mc.Accumulator(), errM, pc.Accumulator(), errP)
		}
	}
}

func (w twin) checkReserve(when string, d time.Duration) {
	w.t.Helper()
	if got, want := w.memo.MaxLoadFor(d), w.plain.MaxLoadFor(d); !sameBits(float64(got), float64(want)) {
		w.t.Fatalf("%s: MaxLoadFor(%v) = %v memoized, %v direct", when, d, got, want)
	}
}

// TestMemoRecomputesAfterMutation drives a memoized breaker through every
// mutation that changes what its trip curve evaluates — heating, Derate,
// SetState, Reset and a replaced Curve — and checks after each that the
// memo recomputes rather than serving the previous answer.
func TestMemoRecomputesAfterMutation(t *testing.T) {
	var m Memo
	w := newTwin(t, &m, 1000)
	w.check("fresh")
	w.both(func(b *Breaker) { _ = b.Step(1400, time.Second) })
	w.check("heated")
	w.both(func(b *Breaker) { b.Derate(0.8) })
	w.check("derated")
	w.both(func(b *Breaker) {
		if err := b.SetState(State{Rated: 900, Acc: 0.5, Load: 1200}); err != nil {
			t.Fatal(err)
		}
	})
	w.check("restored")
	w.both(func(b *Breaker) { b.Curve = TripCurve{A: 40, B: 1.5, Instantaneous: 4} })
	w.check("new curve")
	w.both(func(b *Breaker) { b.Curve.B = 2 })
	w.check("new exponent")
	w.both(func(b *Breaker) { b.Reset() })
	w.check("reset")
	w.both(func(b *Breaker) { b.Cooldown = time.Minute; _ = b.Step(1200, time.Second) })
	w.check("new cooldown")
	for _, d := range []time.Duration{10 * time.Second, 0, time.Hour, time.Minute} {
		w.checkReserve("new reserve", d)
	}
}

// TestMemoSharedAcrossBreakers interleaves breakers in different thermal
// states on one memo, as a power tree does with its PDU and DC breakers:
// no breaker may ever see another's cached answer.
func TestMemoSharedAcrossBreakers(t *testing.T) {
	var m Memo
	hot, cold := newTwin(t, &m, 1000), newTwin(t, &m, 2500)
	for i := 0; i < 50; i++ {
		hot.both(func(b *Breaker) { _ = b.Step(1300, time.Second) })
		cold.both(func(b *Breaker) { _ = b.Step(units.Watts(2000+10*i), 2*time.Second) })
		hot.check("hot")
		cold.check("cold")
	}
}

// TestMemoAccZeroFastPath pins the cool-breaker shortcut: stepping a breaker
// with no thermal stress below its rating leaves the accumulator exactly +0,
// as the cooling arithmetic it skips would have.
func TestMemoAccZeroFastPath(t *testing.T) {
	var m Memo
	w := newTwin(t, &m, 1000)
	w.both(func(b *Breaker) {
		if err := b.SetState(State{Rated: 1000, Acc: math.Copysign(0, -1)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(500, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := b.Accumulator(); math.Float64bits(got) != 0 {
			t.Fatalf("%s: accumulator %v (bits %x) after a cool step, want +0", b.Name, got, math.Float64bits(got))
		}
	})
}
