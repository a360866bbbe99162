package ups

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/units"
)

// TestMemoRecomputesAfterMutation drives a memoized group battery and an
// unmemoized twin through every change to what the output limits read —
// discharge, recharge, Fade, SetState, Fail and a changed sensed SoC — and
// checks after each that the memoized limits are bit-identical to the
// direct ones rather than the previous answer.
func TestMemoRecomputesAfterMutation(t *testing.T) {
	var m Memo
	// A SoC floor makes every limit depend on the capacity.
	cfg := DefaultServerBattery()
	cfg.MinSoC = 0.1
	memo, err := NewGroup(200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewGroup(200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo.UseMemo(&m)
	both := func(f func(*Battery)) { f(memo); f(plain) }
	restore := func(f func(*State)) func(*Battery) {
		return func(b *Battery) {
			st := b.State()
			f(&st)
			if err := b.SetState(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(a, b units.Watts) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	maxOutput := func(when string, dt time.Duration) {
		t.Helper()
		if got, want := memo.MaxOutput(dt), plain.MaxOutput(dt); !same(got, want) {
			t.Fatalf("%s: MaxOutput(%v) = %v memoized, %v direct", when, dt, got, want)
		}
	}
	atSoC := func(when string, soc float64) {
		t.Helper()
		if got, want := memo.MaxOutputAtSoC(soc, time.Hour), plain.MaxOutputAtSoC(soc, time.Hour); !same(got, want) {
			t.Fatalf("%s: MaxOutputAtSoC(%v) = %v memoized, %v direct", when, soc, got, want)
		}
	}
	// Every check asks the same questions, so a memo that missed a
	// mutation would serve the previous check's answers. An hour-long dt
	// keeps the limits below the discharge power cap, so they depend on
	// everything the memo keys on.
	check := func(when string) {
		t.Helper()
		maxOutput(when, time.Hour)
		for _, soc := range []float64{0.4, 0.4, 0.9} {
			atSoC(when, soc)
		}
		maxOutput(when, time.Hour)
	}
	check("fresh")
	for i := 0; i < 3; i++ {
		both(func(b *Battery) { b.Discharge(30e3, 10*time.Second) })
		check("discharged")
	}
	both(func(b *Battery) { b.Recharge(5e3, 10*time.Second) })
	check("recharged")
	for _, dt := range []time.Duration{2 * time.Hour, 0, time.Hour} {
		maxOutput("new dt", dt)
	}
	both(func(b *Battery) { b.Fade(0.5) })
	check("faded")
	both(restore(func(st *State) { st.Capacity *= 1.5 }))
	check("capacity restored")
	both(restore(func(st *State) { st.MaxDischarge = 100 }))
	check("power limit restored")
	// A stored energy whose bits equal a sensed SoC the planner queries.
	both(restore(func(st *State) { st.Stored = 0.4 }))
	maxOutput("tiny store", time.Hour)
	atSoC("tiny store", 0.4)
	both(func(b *Battery) { b.Fail() })
	check("failed")
}

// TestMemoSharedAcrossBatteries interleaves batteries on one memo, as a
// power tree does with its group batteries: neighbours whose
// configurations differ in a single field the limits read while holding the
// same stored energy, discharging at different rates.
func TestMemoSharedAcrossBatteries(t *testing.T) {
	base := DefaultServerBattery()
	base.MinSoC = 0.1
	variants := []func(*BatteryConfig){
		func(c *BatteryConfig) { c.MinSoC = 0.2 },
		func(c *BatteryConfig) { c.DischargeEfficiency = 0.8 },
		func(c *BatteryConfig) { c.MaxDischarge = 1 },
		func(c *BatteryConfig) { c.BusVoltage = 24 },
		func(c *BatteryConfig) { c.Capacity = 2 * base.Capacity },
		func(c *BatteryConfig) { c.MaxRecharge = 1 },
	}
	var m Memo
	var memo, plain []*Battery
	add := func(cfg BatteryConfig) {
		for _, list := range []*[]*Battery{&memo, &plain} {
			b, err := NewGroup(200, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Every battery starts from the base battery's full charge.
			st := b.State()
			st.Stored = base.scale(200).Capacity.Energy(base.BusVoltage)
			if err := b.SetState(st); err != nil {
				t.Fatal(err)
			}
			*list = append(*list, b)
		}
		memo[len(memo)-1].UseMemo(&m)
	}
	for _, v := range variants {
		cfg := base
		v(&cfg)
		add(base)
		add(cfg)
	}
	for step := 0; step < 20; step++ {
		for i := range memo {
			if got, want := memo[i].MaxOutput(time.Hour), plain[i].MaxOutput(time.Hour); got != want {
				t.Fatalf("step %d battery %d: MaxOutput = %v memoized, %v direct", step, i, got, want)
			}
		}
		for i := range memo {
			req := units.Watts(10e3 * (i%3 + 1))
			got, want := memo[i].Discharge(req, time.Second), plain[i].Discharge(req, time.Second)
			if got != want || memo[i].Stored() != plain[i].Stored() {
				t.Fatalf("step %d battery %d: delivered %v stored %v memoized, %v / %v direct",
					step, i, got, memo[i].Stored(), want, plain[i].Stored())
			}
		}
	}
}
