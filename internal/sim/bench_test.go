package sim

import (
	"testing"
	"time"

	"dcsprint/internal/workload"
)

// BenchmarkEngineStep measures one bare tick of the streaming engine — the
// floor under every per-step latency number the control-plane service can
// report. A short warmup excludes the one-time burst-start and phase-change
// event formatting so the number is the steady-state tick, which must stay
// at zero allocations.
func BenchmarkEngineStep(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
}

// BenchmarkEngineStepBurst measures one tick averaged over whole burst
// cycles. BenchmarkEngineStep holds demand at 1.5 forever, so at real
// benchtime it mostly times a drained plant in phase 0; here a seeded
// 30-minute Yahoo trace with a 3.2x, 15-minute burst drives every cycle
// through phases 0, 1, 2 and 3 and back into recovery, in the proportions
// the paper's evaluation runs them. Each cycle starts on a fresh engine
// built off the timer. The few event strings a cycle formats amortize to
// zero allocations per tick.
func BenchmarkEngineStepBurst(b *testing.B) {
	tr := mustTrace(workload.SyntheticYahoo(7, 3.2, 15*time.Minute))
	sc := Scenario{Name: "bench-burst", Trace: tr}
	var eng *Engine
	next := tr.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == tr.Len() {
			b.StopTimer()
			var err error
			if eng, err = New(sc); err != nil {
				b.Fatalf("New: %v", err)
			}
			next = 0
			b.StartTimer()
		}
		if _, err := eng.Step(tr.Samples[next]); err != nil {
			b.Fatalf("Step: %v", err)
		}
		next++
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkEngineSnapshot measures checkpoint cost at a realistic mid-run
// history depth.
func BenchmarkEngineSnapshot(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Snapshot(); err != nil {
			b.Fatalf("Snapshot: %v", err)
		}
	}
}

// BenchmarkBatchStep measures a shard worker's stepping loop on a fleet of
// small facilities under a staggered ~80/20 idle/sprint duty cycle: each
// iteration advances all 256 engines one tick with plain Engine.Step calls.
// The steps/s custom metric is the acceptance gate (≥1M engine steps per
// second per core, single goroutine); CI reads it out of benchjson.
func BenchmarkBatchStep(b *testing.B) {
	const sessions = 256
	engs := make([]*Engine, sessions)
	for i := range engs {
		var err error
		if engs[i], err = New(Scenario{Name: "bench", Servers: 200}); err != nil {
			b.Fatalf("New: %v", err)
		}
	}
	// Stagger each session's duty cycle by index so the fleet mixes idle
	// and sprinting sessions within every round.
	demand := func(round, i int) float64 {
		if (round+i)%10 < 8 {
			return 0.6
		}
		return 1.5
	}
	// Pre-size every session's telemetry accumulators for the whole run so
	// the timed loop measures steady-state stepping, not buffer regrowth
	// (regrowth is a rare amortized event; at the default streamPrealloc a
	// session pays it about once per 17 simulated minutes).
	for _, eng := range engs {
		eng.grow(b.N + 64)
	}
	step := func(round int) {
		for i, eng := range engs {
			if _, err := eng.Step(demand(round, i)); err != nil {
				b.Fatalf("Step: %v", err)
			}
		}
	}
	// Warm past the one-time burst-start event formatting in every session.
	for r := 0; r < 16; r++ {
		step(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	steps := float64(b.N) * sessions
	b.ReportMetric(steps/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
}

// BenchmarkDeltaSnapshot measures incremental checkpoint cost at the
// durability layer's cadence: a base snapshot refreshed rarely, deltas taken
// every 32 ticks. The delta_frac metric (delta bytes over full-snapshot
// bytes) is the acceptance gate: ≤0.10 at this depth.
func BenchmarkDeltaSnapshot(b *testing.B) {
	eng, err := New(Scenario{Name: "bench"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	base, err := eng.Snapshot()
	if err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.Step(1.5); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
	full, err := eng.Snapshot()
	if err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	var delta []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if delta, err = eng.DeltaSnapshot(base); err != nil {
			b.Fatalf("DeltaSnapshot: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(delta)), "delta_B")
	b.ReportMetric(float64(len(delta))/float64(len(full)), "delta_frac")
}
