package breaker

import (
	"errors"
	"fmt"
	"time"

	"dcsprint/internal/units"
)

// ErrTripped is returned by Step once the thermal accumulator reaches 1 (or
// the magnetic element fires). A tripped breaker delivers no power until
// Reset.
var ErrTripped = errors.New("breaker: tripped")

// DefaultCooldown is the time a fully heated (accumulator = 1) breaker takes
// to recover completely once the load returns below the rating.
const DefaultCooldown = 10 * time.Minute

// Breaker is a circuit breaker protecting one power-delivery component. It
// integrates thermal stress over time: each second at overload ratio r
// contributes 1/T(r) toward tripping, and time spent at or below the rating
// cools the accumulator linearly over Cooldown.
type Breaker struct {
	// Name identifies the breaker in telemetry and errors.
	Name string
	// Rated is the rated power limit (overload ratio 1).
	Rated units.Watts
	// Curve is the long-delay trip characteristic.
	Curve TripCurve
	// Cooldown is the full-recovery time; zero means DefaultCooldown.
	Cooldown time.Duration

	acc     float64 // thermal accumulator in [0, 1]; trips at 1
	tripped bool
	load    units.Watts // last observed load

	memo *Memo // shared trip-curve cache; nil computes every evaluation
}

// New returns a breaker with the given rating and curve.
func New(name string, rated units.Watts, curve TripCurve) (*Breaker, error) {
	if rated <= 0 {
		return nil, fmt.Errorf("breaker %s: non-positive rating %v", name, rated)
	}
	if err := curve.Validate(); err != nil {
		return nil, fmt.Errorf("breaker %s: %w", name, err)
	}
	return &Breaker{Name: name, Rated: rated, Curve: curve, Cooldown: DefaultCooldown}, nil
}

// UseMemo makes the breaker evaluate its trip curve through m, which the
// owner may share with other breakers stepped on the same goroutine. Nil
// detaches it. The memo changes no result, only how often the curve is
// evaluated.
func (b *Breaker) UseMemo(m *Memo) { b.memo = m }

// Ratio returns the overload ratio of a load against this breaker's rating.
func (b *Breaker) Ratio(load units.Watts) float64 {
	return float64(load) / float64(b.Rated)
}

// Accumulator returns the current thermal stress in [0, 1].
func (b *Breaker) Accumulator() float64 { return b.acc }

// Tripped reports whether the breaker has opened.
func (b *Breaker) Tripped() bool { return b.tripped }

// Load returns the load observed by the most recent Step.
func (b *Breaker) Load() units.Watts { return b.load }

// Derate permanently reduces the rating to frac of its current value — an
// aged or heat-soaked breaker that can no longer carry its nameplate. The
// thermal accumulator and trip state are preserved; frac outside (0, 1] is
// ignored.
func (b *Breaker) Derate(frac float64) {
	if frac <= 0 || frac > 1 {
		return
	}
	b.Rated = units.Watts(float64(b.Rated) * frac)
}

// Reset closes a tripped breaker and clears its thermal state. In a real
// facility this is a manual intervention after a shutdown; the simulator
// exposes it for experiment reuse.
func (b *Breaker) Reset() {
	b.tripped = false
	b.acc = 0
	b.load = 0
}

// Step advances the breaker by dt under the given load. It returns
// ErrTripped (wrapped with the breaker name) at the step during which the
// accumulated thermal stress reaches 1 or the magnetic element fires.
// Calling Step on a tripped breaker keeps returning the error.
func (b *Breaker) Step(load units.Watts, dt time.Duration) error {
	if b.tripped {
		return fmt.Errorf("breaker %s: %w", b.Name, ErrTripped)
	}
	if dt <= 0 {
		return fmt.Errorf("breaker %s: non-positive step %v", b.Name, dt)
	}
	b.load = load
	r := b.Ratio(load)
	if r >= b.Curve.Instantaneous {
		b.tripped = true
		b.acc = 1
		return fmt.Errorf("breaker %s: magnetic trip at ratio %.2f: %w", b.Name, r, ErrTripped)
	}
	if r <= 1 {
		if b.acc == 0 {
			// Fully cool already: the cooling step below would only clamp a
			// negative result back to (+)0.
			b.acc = 0
			return nil
		}
		cd := b.Cooldown
		if cd <= 0 {
			cd = DefaultCooldown
		}
		b.acc -= dt.Seconds() / cd.Seconds()
		if b.acc < 0 {
			b.acc = 0
		}
		return nil
	}
	b.acc += dt.Seconds() / b.memo.tripSeconds(r, b.Curve)
	if b.acc >= 1 {
		b.acc = 1
		b.tripped = true
		return fmt.Errorf("breaker %s: thermal trip at ratio %.2f: %w", b.Name, r, ErrTripped)
	}
	return nil
}

// RemainingTime returns how long the breaker survives if the given load
// continues unchanged, accounting for stress already accumulated. The
// second result is false when the load never trips the breaker.
func (b *Breaker) RemainingTime(load units.Watts) (time.Duration, bool) {
	if b.tripped {
		return 0, true
	}
	r := b.Ratio(load)
	if r <= 1 {
		return 0, false
	}
	if r >= b.Curve.Instantaneous {
		return 0, true
	}
	t, _ := b.Curve.TripTime(r)
	rem := time.Duration((1 - b.acc) * float64(t))
	return rem, true
}

// MaxLoadFor returns the largest load the breaker can carry continuously for
// at least d from its current thermal state. The answer is never below the
// rating: the rating is always sustainable.
func (b *Breaker) MaxLoadFor(d time.Duration) units.Watts {
	if b.tripped {
		return 0
	}
	return units.Watts(b.memo.ratio(b.acc, d, b.Curve)) * b.Rated
}
