package ups

import (
	"time"

	"dcsprint/internal/units"
)

// Memo caches a battery's last output-limit evaluation (MaxOutput or
// MaxOutputAtSoC), keyed on the exact bits of everything the evaluation
// reads: the stored energy or sensed SoC, the (possibly faded)
// configuration and dt. A power tree hands one Memo to all of its group
// batteries (UseMemo), so groups in the same state share one evaluation and
// the planner's and the discharge step's queries within a tick share
// another.
//
// A Memo is a cache, not state: a hit returns the identical value the
// evaluation would compute. Snapshots omit it and a restored battery starts
// cold. The zero value is ready to use; a Memo is not safe for concurrent
// use.
type Memo struct {
	// Output limit: maxOutput(atSoC, level, dt) under cfg.
	atSoC bool
	level float64 // the stored energy, or the sensed SoC when atSoC
	cfg   BatteryConfig
	dt    time.Duration
	out   units.Watts
	have  bool
}

// output returns b.maxOutput(atSoC, level, dt) through the memo; a nil Memo
// computes directly. The key covers every configuration field maxOutput
// reads (MaxRecharge is not one).
func (m *Memo) output(b *Battery, atSoC bool, level float64, dt time.Duration) units.Watts {
	if m == nil {
		return b.maxOutput(atSoC, level, dt)
	}
	c, k := &b.cfg, &m.cfg
	if !m.have || atSoC != m.atSoC || dt != m.dt ||
		units.BitDiff(level, m.level)|
			units.BitDiff(float64(c.Capacity), float64(k.Capacity))|
			units.BitDiff(c.BusVoltage, k.BusVoltage)|
			units.BitDiff(float64(c.MaxDischarge), float64(k.MaxDischarge))|
			units.BitDiff(c.DischargeEfficiency, k.DischargeEfficiency)|
			units.BitDiff(c.MinSoC, k.MinSoC) != 0 {
		m.atSoC, m.level, m.cfg, m.dt = atSoC, level, *c, dt
		m.out, m.have = b.maxOutput(atSoC, level, dt), true
	}
	return m.out
}
