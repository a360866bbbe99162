package core

import (
	"math"
	"testing"
	"time"

	"dcsprint/internal/units"
)

// TestPlanIsGroupOrderInvariant checks that the planner treats PDU groups
// alike whatever their order: mirroring the groups — their demand weights
// and any per-group component damage — must mirror every group's planned
// operating point. prepare and plan reuse a neighbouring group's operating
// point when the two demands are bit-identical, so a shortcut taken on
// unequal inputs shows up as an order dependence. The cases vary one
// per-group input at a time: demand, breaker rating or battery.
func TestPlanIsGroupOrderInvariant(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		damage  func(f *facility, group func(int) int)
	}{
		{"skewed demand", []float64{1.6, 1.3, 1.3, 0.5, 0.3}, nil},
		{"skewed demand, no batteries", []float64{1.6, 1.3, 1.3, 0.5, 0.3},
			func(f *facility, _ func(int) int) {
				for _, p := range f.tree.PDUs {
					p.UPS.Fail()
				}
			}},
		{"derated breakers, no batteries", nil,
			func(f *facility, group func(int) int) {
				for _, p := range f.tree.PDUs {
					p.UPS.Fail()
				}
				f.tree.PDUs[group(0)].Breaker.Derate(0.7)
				f.tree.PDUs[group(1)].Breaker.Derate(0.8)
			}},
		{"unevenly drained batteries", nil,
			func(f *facility, group func(int) int) {
				for g, stored := range []units.Joules{2e3, 6e3} {
					b := f.tree.PDUs[group(g)].UPS
					st := b.State()
					st.Stored = stored
					if err := b.SetState(st); err != nil {
						t.Fatal(err)
					}
				}
				f.tree.PDUs[group(2)].UPS.Fail()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newFacility(t, facilityOpts{weights: tc.weights})
			n := len(a.tree.PDUs)
			mirror := func(g int) int { return n - 1 - g }
			var reversed []float64
			for g := range tc.weights {
				reversed = append(reversed, tc.weights[mirror(g)])
			}
			b := newFacility(t, facilityOpts{weights: reversed})
			if tc.damage != nil {
				tc.damage(a, func(g int) int { return g })
				tc.damage(b, mirror)
			}
			near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }
			for tick := 0; tick < 1800; tick++ {
				demand := 2.4
				if tick >= 1200 {
					demand = 0.8
				}
				ra, rb := a.ctl.Tick(demand, time.Second), b.ctl.Tick(demand, time.Second)
				if ra.Phase != rb.Phase || ra.Dead != rb.Dead || !near(ra.Delivered, rb.Delivered) {
					t.Fatalf("tick %d: phase %d delivered %v, mirrored %d / %v",
						tick, ra.Phase, ra.Delivered, rb.Phase, rb.Delivered)
				}
				for g := 0; g < n; g++ {
					ga, gb := a.ctl.buf.groups[g], b.ctl.buf.groups[mirror(g)]
					upsA, upsB := a.ctl.buf.flowUPS[g], b.ctl.buf.flowUPS[mirror(g)]
					if ga.cores != gb.cores || !near(float64(ga.perServer), float64(gb.perServer)) ||
						!near(ga.delivered, gb.delivered) || !near(float64(upsA), float64(upsB)) {
						t.Fatalf("tick %d group %d: %+v (UPS %v), mirrored %+v (UPS %v)", tick, g, ga, upsA, gb, upsB)
					}
				}
			}
		})
	}
}
