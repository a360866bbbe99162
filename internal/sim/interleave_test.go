package sim

import (
	"reflect"
	"testing"
	"time"

	"dcsprint/internal/core"
	"dcsprint/internal/workload"
)

// TestInterleavedEnginesMatchIndependent pins that engines share no mutable
// state: a mixed population — all five strategies, traces that drive
// sprinting through phases 1–3 — stepped round-robin one tick at a time, the
// way a shard worker serves its sessions, produces decisions and Results
// DeepEqual-identical to running each engine alone from start to finish.
// Per-tree memos (breaker trip-curve inverses, UPS output limits) leaking
// across engines would show up here as a divergence.
func TestInterleavedEnginesMatchIndependent(t *testing.T) {
	tbl := buildTestTable(t)
	tr := mustTrace(workload.SyntheticYahoo(7, 3.2, 15*time.Minute))
	st := workload.Analyze(tr)
	strategies := []core.Strategy{
		nil, // greedy
		core.FixedBound{Bound: 2.5},
		core.Prediction{PredictedDuration: st.AggregateDuration, Table: tbl},
		core.Heuristic{EstimatedAvgDegree: 2.5, Flexibility: 0.10},
		core.Adaptive{Table: tbl},
	}
	var scs []Scenario
	for i, strat := range strategies {
		scs = append(scs, Scenario{Name: "mixed", Trace: tr, Strategy: strat})
		scs = append(scs, Scenario{Name: "mixed-tes", Trace: tr, Strategy: strat, TESMinutes: 5 + float64(i)})
	}

	// Independent runs first, one engine at a time.
	wantDecs := make([][]TickDecision, len(scs))
	wantRes := make([]*Result, len(scs))
	for i, sc := range scs {
		eng, err := New(sc)
		if err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
		for tick := 0; tick < tr.Len(); tick++ {
			dec, err := eng.Step(tr.Samples[tick])
			if err != nil {
				t.Fatalf("solo Step %d tick %d: %v", i, tick, err)
			}
			wantDecs[i] = append(wantDecs[i], dec)
		}
		if wantRes[i], err = eng.Finish(); err != nil {
			t.Fatalf("solo Finish %d: %v", i, err)
		}
	}

	engs := make([]*Engine, len(scs))
	for i, sc := range scs {
		var err error
		if engs[i], err = New(sc); err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
	}
	phasesSeen := map[int]bool{}
	for tick := 0; tick < tr.Len(); tick++ {
		for i, eng := range engs {
			dec, err := eng.Step(tr.Samples[tick])
			if err != nil {
				t.Fatalf("interleaved Step %d tick %d: %v", i, tick, err)
			}
			if !reflect.DeepEqual(dec, wantDecs[i][tick]) {
				t.Fatalf("session %d tick %d: interleaved decision diverged", i, tick)
			}
			phasesSeen[dec.Phase] = true
		}
	}
	for _, ph := range []int{1, 2, 3} {
		if !phasesSeen[ph] {
			t.Errorf("population never entered phase %d (saw %v)", ph, phasesSeen)
		}
	}
	for i, eng := range engs {
		got, err := eng.Finish()
		if err != nil {
			t.Fatalf("interleaved Finish %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wantRes[i]) {
			t.Fatalf("session %d (strategy %T): interleaved Result differs from independent engine",
				i, scs[i].Strategy)
		}
	}
}
