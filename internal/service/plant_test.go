package service

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"dcsprint/internal/telemetry"
	"dcsprint/internal/tsdb"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestManagerPlantPipeline drives the full observability path: sessions
// get plant recorders at install, the sampler folds them into fleet
// series, the watchdog fires on the sprinting fleet, and finishing the
// sessions clears both the per-session series and the alert.
func TestManagerPlantPipeline(t *testing.T) {
	store := tsdb.New(tsdb.Options{})
	sink := tsdb.NewPlantSink(store, tsdb.SinkOptions{})
	reg := telemetry.NewRegistry()
	flight := telemetry.NewFlightRecorder(NumShards, 64)
	rules, err := tsdb.ParseRules("load-active = max(fleet.sessions_sprinting, 200ms) > 0 for 1")
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	wd, err := tsdb.NewWatchdog(store, rules, reg, flight)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	m := NewManager(Config{
		Registry: reg,
		Flight:   flight,
		Plant:    PlantOptions{Sink: sink, Watchdog: wd, Every: 5 * time.Millisecond},
	})
	defer m.Close()

	ids := make([]string, 2)
	for i := range ids {
		s, err := m.Create(ScenarioSpec{}, TraceContext{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[i] = s.ID
	}
	// Sprint both sessions so degree > 1 reaches the fleet fold.
	for tick := 0; tick < 40; tick++ {
		for _, id := range ids {
			if _, err := m.Step(id, -1, 3.0, TraceContext{}); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	for _, id := range ids {
		if store.Lookup(`plant.degree{session="`+id+`"}`) == nil {
			t.Fatalf("session %s has no per-session degree series", id)
		}
	}
	waitFor(t, "fleet fold of both sessions", func() bool {
		v, ok := store.Lookup(tsdb.SeriesFleetSessions).Last()
		return ok && v == 2
	})
	if v, ok := store.Lookup(tsdb.SeriesFleetTotalDraw).Last(); !ok || v <= 0 {
		t.Fatalf("fleet draw = %v, %v", v, ok)
	}
	waitFor(t, "watchdog to fire on the sprinting fleet", func() bool {
		return len(wd.Active()) == 1
	})

	for _, id := range ids {
		if _, err := m.Finish(id, TraceContext{}); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	for _, id := range ids {
		if store.Lookup(`plant.degree{session="`+id+`"}`) != nil {
			t.Fatalf("session %s series survived Finish", id)
		}
	}
	waitFor(t, "alert to clear once the fleet drains", func() bool {
		return len(wd.Active()) == 0
	})
	// The lifecycle left its audit trail: one breach, one clear, both in
	// the counters and the flight recorder.
	if got := reg.CounterWith("dcsprint_slo_breaches_total", "",
		telemetry.Labels{"rule": "load-active"}).Value(); got < 1 {
		t.Fatalf("breach counter = %v", got)
	}
	var sawBreach, sawClear bool
	for _, ev := range flight.Events() {
		sawBreach = sawBreach || ev.Kind == telemetry.EventSLOBreach
		sawClear = sawClear || ev.Kind == telemetry.EventSLOClear
	}
	if !sawBreach || !sawClear {
		t.Fatalf("flight breach=%v clear=%v", sawBreach, sawClear)
	}
}

// TestShardWorkerLabels checks every shard worker goroutine carries a pprof
// shard label, so CPU profiles attribute stepping work to the shard
// that burned it.
func TestShardWorkerLabels(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{}, TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := m.Step(s.ID, -1, 1.0, TraceContext{}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	// A worker goroutine that has not been scheduled yet carries no labels,
	// so poll until every shard shows up in the profile.
	var buf bytes.Buffer
	waitFor(t, "all shard labels in the goroutine profile", func() bool {
		buf.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatalf("goroutine profile: %v", err)
		}
		for shard := 0; shard < NumShards; shard++ {
			want := `"shard":"` + strconv.Itoa(shard) + `"`
			if !bytes.Contains(buf.Bytes(), []byte(want)) {
				return false
			}
		}
		return true
	})
}

// TestManagerProbes pins the pull-based probe to the per-tick recorder: at
// every tick of a burst that drives sessions through phases 1–3, each
// probe's plant ledgers are bit-identical to the last PlantSample the
// session's tsdb recorder received, and its workload fields echo the last
// step's decision. A restored session probes its restored plant before its
// first step, with zero workload fields.
func TestManagerProbes(t *testing.T) {
	store := tsdb.New(tsdb.Options{})
	sink := tsdb.NewPlantSink(store, tsdb.SinkOptions{})
	m := NewManager(Config{Plant: PlantOptions{Sink: sink, Every: time.Hour}})
	defer m.Close()

	specs := []ScenarioSpec{yahooSpec("probe"), yahooSpec("probe-chip"), yahooSpec("probe-notes")}
	specs[1].ChipPCMMinutes = 2
	specs[2].NoTES = true
	ids := make([]string, len(specs))
	for i, spec := range specs {
		s, err := m.Create(spec, TraceContext{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[i] = s.ID
	}
	last := func(base, id string) float64 {
		v, ok := store.Lookup(base + `{session="` + id + `"}`).Last()
		if !ok {
			return -1 // optional field the recorder skips: model absent
		}
		return v
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checkPlant := func(what string, p PlantProbe, id string) {
		t.Helper()
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"BreakerStress", p.Sample.BreakerStress, last("plant.breaker_stress", id)},
			{"UPSSoC", p.Sample.UPSSoC, last("plant.ups_soc", id)},
			{"TESSoC", p.Sample.TESSoC, last("plant.tes_soc", id)},
			{"RoomTempC", p.Sample.RoomTempC, last("plant.room_temp_c", id)},
			{"ThermalMarginC", p.Sample.ThermalMarginC, last("plant.thermal_margin_c", id)},
			{"ChipHeadroomJ", p.Sample.ChipHeadroomJ, last("plant.chip_headroom_j", id)},
		} {
			if !same(f.got, f.want) {
				t.Fatalf("%s: %s = %v, recorder's last sample has %v", what, f.name, f.got, f.want)
			}
		}
	}
	probes := func() map[string]PlantProbe {
		out := map[string]PlantProbe{}
		for _, p := range m.Probes() {
			out[p.ID] = p
		}
		return out
	}

	// A second prober runs throughout, racing the steps, creates and
	// finishes below (the fleet host's fold loop does the same).
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				m.Probes()
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	sc := yahooScenario(t, "probe")
	decs := make([]Decision, len(ids))
	phases := map[int]bool{}
	restoredChecked := false
	for tick := 0; tick < sc.Trace.Len(); tick++ {
		for i, id := range ids {
			var err error
			if decs[i], err = m.Step(id, -1, sc.Trace.Samples[tick], TraceContext{}); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		ps := probes()
		for i, id := range ids {
			p, ok := ps[id]
			if !ok {
				t.Fatalf("tick %d: no probe for session %s", tick, id)
			}
			what := fmt.Sprintf("tick %d session %d", tick, i)
			checkPlant(what, p, id)
			d := decs[i]
			if p.Sample.Tick != tick+1 || p.Dead != d.Dead ||
				!same(p.Sample.Demand, d.Demand) || !same(p.Sample.Delivered, d.Delivered) ||
				!same(p.Sample.Degree, d.Degree) || p.Sample.Phase != d.Phase ||
				!same(p.Sample.DCLoadW, last("plant.dc_load_watts", id)) {
				t.Fatalf("%s: probe %+v disagrees with decision %+v", what, p, d)
			}
			phases[p.Sample.Phase] = true
		}
		if !restoredChecked && decs[0].Phase == 2 {
			restoredChecked = true
			doc, err := m.Snapshot(ids[0], TraceContext{})
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := m.Restore(doc, TraceContext{})
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			p, ok := probes()[restored.ID]
			if !ok {
				t.Fatal("restored session reports no probe before its first step")
			}
			if _, ok := store.Lookup(`plant.ups_soc{session="` + restored.ID + `"}`).Last(); ok {
				t.Fatal("restored session's recorder saw a sample before its first step")
			}
			checkPlant("restored before first step", p, ids[0])
			if p.Sample.Tick != tick+1 || p.Sample.Demand != 0 || p.Sample.Degree != 0 ||
				p.Sample.Phase != 0 || p.Sample.DCLoadW != 0 {
				t.Fatalf("restored probe carries workload fields before its first step: %+v", p.Sample)
			}
			if _, err := m.Finish(restored.ID, TraceContext{}); err != nil {
				t.Fatalf("Finish restored: %v", err)
			}
		}
	}
	if !restoredChecked {
		t.Fatal("session 0 never reached phase 2")
	}
	for _, ph := range []int{1, 2, 3} {
		if !phases[ph] {
			t.Errorf("probes never saw phase %d (saw %v)", ph, phases)
		}
	}
}
