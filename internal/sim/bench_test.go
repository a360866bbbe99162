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
