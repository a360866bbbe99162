package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcsprint/internal/sim"
)

// yahooSpec is the canonical test scenario: a seeded synthetic Yahoo burst,
// fully reproducible on both the client and server side.
func yahooSpec(name string) ScenarioSpec {
	return ScenarioSpec{
		Name:  name,
		Trace: &TraceSpec{Kind: "yahoo", Seed: 1, Degree: 3.2, DurationSeconds: 15 * 60},
	}
}

func yahooScenario(t *testing.T, name string) sim.Scenario {
	t.Helper()
	sc, err := yahooSpec(name).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sc
}

// TestManagerStreamEqualsBatch drives a session sample-by-sample through the
// manager and checks the Result is identical to the batch run.
func TestManagerStreamEqualsBatch(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	sc := yahooScenario(t, "stream-vs-batch")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := m.Create(yahooSpec("stream-vs-batch"), TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, demand := range sc.Trace.Samples {
		dec, err := m.Step(s.ID, -1, demand, TraceContext{})
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if dec.Tick != i {
			t.Fatalf("decision tick %d, want %d", dec.Tick, i)
		}
	}
	got, err := m.Finish(s.ID, TraceContext{})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(NewResultView(got), NewResultView(want)) {
		t.Fatal("streamed Result differs from batch Result")
	}
	if _, err := m.Step(s.ID, -1, 1, TraceContext{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after finish: err = %v, want ErrNotFound", err)
	}
}

// TestHTTPStreamEqualsBatch is the full-wire equivalence check: NDJSON over
// a real TCP connection, decisions in lockstep, final ResultView identical
// to the batch run's view.
func TestHTTPStreamEqualsBatch(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	sc := yahooScenario(t, "http")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s, err := c.Create(ctx, yahooSpec("http"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if s.TraceLen != sc.Trace.Len() {
		t.Fatalf("session trace len %d, want %d", s.TraceLen, sc.Trace.Len())
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	for i, demand := range sc.Trace.Samples {
		dec, err := st.StepContext(ctx, demand)
		if err != nil {
			t.Fatalf("stream step %d: %v", i, err)
		}
		if dec.Tick != i || dec.Demand != demand {
			t.Fatalf("step %d: got tick %d demand %v", i, dec.Tick, dec.Demand)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	got, err := c.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatal("HTTP streamed ResultView differs from batch run")
	}
}

// TestHTTPSnapshotRestoreMidPhase2 checkpoints a session over HTTP while the
// controller is in phase 2 (UPS discharge), restores it into a brand-new
// session, and checks the resumed run finishes with the identical Result.
func TestHTTPSnapshotRestoreMidPhase2(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	sc := yahooScenario(t, "snap")
	want, err := sim.Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s, err := c.Create(ctx, yahooSpec("snap"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	// Drive until the controller has spent a few ticks inside phase 2.
	cut := -1
	inPhase2 := 0
	for i, demand := range sc.Trace.Samples {
		dec, err := st.StepContext(ctx, demand)
		if err != nil {
			t.Fatalf("stream step %d: %v", i, err)
		}
		if dec.Phase == 2 {
			inPhase2++
		}
		if inPhase2 == 5 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("burst never reached phase 2")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	doc, err := c.Snapshot(ctx, s.ID)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	restored, err := c.Restore(ctx, doc)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ID == s.ID {
		t.Fatal("restored session reused the source id")
	}
	rst, err := c.Stream(ctx, restored.ID)
	if err != nil {
		t.Fatalf("Stream restored: %v", err)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := rst.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("restored step %d: %v", i, err)
		}
	}
	if err := rst.Close(); err != nil {
		t.Fatalf("restored stream close: %v", err)
	}
	got, err := c.Finish(ctx, restored.ID)
	if err != nil {
		t.Fatalf("Finish restored: %v", err)
	}
	if !reflect.DeepEqual(got, NewResultView(want)) {
		t.Fatal("restored session's Result differs from the uninterrupted run")
	}

	// The original session is still live and must finish identically too.
	orig, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream original: %v", err)
	}
	for i := cut; i < sc.Trace.Len(); i++ {
		if _, err := orig.StepContext(ctx, sc.Trace.Samples[i]); err != nil {
			t.Fatalf("original step %d: %v", i, err)
		}
	}
	if err := orig.Close(); err != nil {
		t.Fatalf("original stream close: %v", err)
	}
	res, err := c.Finish(ctx, s.ID)
	if err != nil {
		t.Fatalf("Finish original: %v", err)
	}
	if !reflect.DeepEqual(res, NewResultView(want)) {
		t.Fatal("original session's Result changed after being snapshotted")
	}
}

func TestSessionCapacity(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	defer m.Close()
	spec := ScenarioSpec{} // streaming session
	if _, err := m.Create(spec, TraceContext{}); err != nil {
		t.Fatalf("Create 1: %v", err)
	}
	s2, err := m.Create(spec, TraceContext{})
	if err != nil {
		t.Fatalf("Create 2: %v", err)
	}
	if _, err := m.Create(spec, TraceContext{}); !errors.Is(err, ErrAtCapacity) {
		t.Fatalf("Create 3: err = %v, want ErrAtCapacity", err)
	}
	if _, err := m.Finish(s2.ID, TraceContext{}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := m.Create(spec, TraceContext{}); err != nil {
		t.Fatalf("Create after finish: %v", err)
	}
}

func TestBackpressure(t *testing.T) {
	m := NewManager(Config{QueueDepth: 1})
	defer m.Close()

	// Deterministic check: a session already at its queue-depth allowance
	// must turn the next request away with ErrBusy and count it. Build the
	// session by hand, with its pending count pre-loaded, so the shard
	// worker never drains anything out from under the test.
	s := &session{id: "full", mgr: m, sh: m.shardOf("full")}
	s.queued.Store(int32(m.cfg.QueueDepth))
	if _, err := s.do(request{op: opStep, seq: -1, demand: 1.0, reply: make(chan response, 1)}); !errors.Is(err, ErrBusy) {
		t.Fatalf("step into full session queue: err = %v, want ErrBusy", err)
	}
	if m.metrics.backpressure.Value() == 0 {
		t.Fatal("backpressure counter not incremented")
	}

	// Concurrency hammer: many callers against one live session. Busy
	// replies are allowed (that is the point of the bounded queue); anything
	// else is a bug. Exercises the mailbox under the race detector.
	live, err := m.Create(ScenarioSpec{}, TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := m.Step(live.ID, -1, 1.0, TraceContext{}); err != nil && !errors.Is(err, ErrBusy) {
					t.Errorf("Step: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestIdleEviction(t *testing.T) {
	m := NewManager(Config{IdleTTL: 50 * time.Millisecond})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{}, TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// List never touches the idle clock, so poll it until the janitor
	// (ticking at 1s minimum) sweeps the session away.
	deadline := time.Now().Add(10 * time.Second)
	for len(m.List()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session was not evicted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, err := m.Step(s.ID, -1, 1.0, TraceContext{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after eviction: err = %v, want ErrNotFound", err)
	}
	if m.metrics.evicted.Value() == 0 {
		t.Fatal("eviction counter not incremented")
	}
}

func TestDrainOnShutdown(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create(ScenarioSpec{}, TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Step(s.ID, -1, 1.2, TraceContext{}); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	m.Close() // must not hang, must stop the session goroutine
	if _, err := m.Step(s.ID, -1, 1.0, TraceContext{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after shutdown: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Create(ScenarioSpec{}, TraceContext{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestTraceExhausted(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	spec := ScenarioSpec{Trace: &TraceSpec{Kind: "samples", Samples: []float64{1, 1.5, 1}}}
	s, err := m.Create(spec, TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Step(s.ID, -1, 1.0, TraceContext{}); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if _, err := m.Step(s.ID, -1, 1.0, TraceContext{}); !errors.Is(err, ErrTraceExhausted) {
		t.Fatalf("step past trace: err = %v, want ErrTraceExhausted", err)
	}
	if _, err := m.Finish(s.ID, TraceContext{}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []ScenarioSpec{
		{Servers: -1},
		{Servers: MaxServers + 1},
		{Trace: &TraceSpec{Kind: "nope"}},
		{Trace: &TraceSpec{Kind: "samples"}},
		{Trace: &TraceSpec{Kind: "constant"}},
		{Strategy: &StrategySpec{Kind: "nope"}},
		{Strategy: &StrategySpec{Kind: "fixed", Bound: 0.5}},
	}
	for i, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Errorf("spec %d: Build accepted an invalid spec", i)
		}
	}
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Create(ScenarioSpec{Trace: &TraceSpec{Kind: "nope"}}, TraceContext{}); err == nil {
		t.Error("Create accepted an invalid spec")
	}
	if m.metrics.active.Value() != 0 {
		t.Error("failed create leaked an active-session slot")
	}
}

func TestListSessions(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if got := m.List(); len(got) != 0 {
		t.Fatalf("fresh manager lists %d sessions", len(got))
	}
	s, err := m.Create(yahooSpec("listed"), TraceContext{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	infos := m.List()
	if len(infos) != 1 || infos[0].ID != s.ID || infos[0].Name != "listed" {
		t.Fatalf("List = %+v", infos)
	}
}

func TestStrategySpecsRun(t *testing.T) {
	// Every strategy kind builds and serves at least one step.
	m := NewManager(Config{})
	defer m.Close()
	kinds := []StrategySpec{
		{Kind: "greedy"},
		{Kind: "fixed", Bound: 2.0},
		{Kind: "prediction", PredictedSeconds: 600},
		{Kind: "heuristic", EstimatedAvgDegree: 2.4, Flexibility: 0.1},
		{Kind: "adaptive"},
	}
	for _, k := range kinds {
		k := k
		spec := ScenarioSpec{Strategy: &k}
		s, err := m.Create(spec, TraceContext{})
		if err != nil {
			t.Fatalf("%s: Create: %v", k.Kind, err)
		}
		if _, err := m.Step(s.ID, -1, 2.0, TraceContext{}); err != nil {
			t.Fatalf("%s: Step: %v", k.Kind, err)
		}
		if _, err := m.Finish(s.ID, TraceContext{}); err != nil {
			t.Fatalf("%s: Finish: %v", k.Kind, err)
		}
	}
}

// BenchmarkServiceSession measures the full session-manager step path
// (mailbox round trip included), the number the daemon's throughput rests
// on.
func BenchmarkServiceSession(b *testing.B) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create(ScenarioSpec{}, TraceContext{})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(s.ID, -1, 1.5, TraceContext{}); err != nil {
			b.Fatalf("Step: %v", err)
		}
	}
}

// BenchmarkServiceSessionIdle measures what resident idle sessions cost a
// busy one: it times a single streaming session's Step on a manager that
// also holds ~1k idle sessions per shard, each built from a four-sample
// inline trace and stepped once. The idle_x metric divides that ns/step by
// the same session's ns/step on an otherwise empty manager, measured first
// in the same process; a step whose cost grows with shard population shows
// up as idle_x well above 1.
func BenchmarkServiceSessionIdle(b *testing.B) {
	const idle = 1024 * NumShards
	timeSteps := func(m *Manager, n int) time.Duration {
		s, err := m.Create(ScenarioSpec{}, TraceContext{})
		if err != nil {
			b.Fatalf("Create: %v", err)
		}
		// Warm past the one-time burst-start event formatting.
		for i := 0; i < 16; i++ {
			if _, err := m.Step(s.ID, -1, 1.5, TraceContext{}); err != nil {
				b.Fatalf("Step: %v", err)
			}
		}
		b.StartTimer()
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := m.Step(s.ID, -1, 1.5, TraceContext{}); err != nil {
				b.Fatalf("Step: %v", err)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		return elapsed
	}
	b.StopTimer()
	empty := NewManager(Config{})
	alone := timeSteps(empty, b.N)
	empty.Close()

	m := NewManager(Config{MaxSessions: idle + 1})
	defer m.Close()
	spec := ScenarioSpec{Trace: &TraceSpec{Kind: "samples", Samples: []float64{0.6, 0.6, 0.6, 0.6}}}
	for i := 0; i < idle; i++ {
		s, err := m.Create(spec, TraceContext{})
		if err != nil {
			b.Fatalf("Create idle %d: %v", i, err)
		}
		if _, err := m.Step(s.ID, -1, 0.6, TraceContext{}); err != nil {
			b.Fatalf("Step idle %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	crowd := timeSteps(m, b.N)
	b.ReportMetric(float64(crowd.Nanoseconds())/float64(b.N), "ns/step")
	b.ReportMetric(float64(crowd)/float64(alone), "idle_x")
}

// TestStreamStepContext checks the cancellable step form: it matches Step on
// a live stream, and a canceled context aborts a step and reports the
// context's error while the session itself survives.
func TestStreamStepContext(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}
	ctx := context.Background()

	s, err := c.Create(ctx, yahooSpec("step-ctx"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st, err := c.Stream(ctx, s.ID)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	dec, err := st.StepContext(ctx, 0.5)
	if err != nil {
		t.Fatalf("StepContext: %v", err)
	}
	if dec.Tick != 0 || dec.Demand != 0.5 {
		t.Fatalf("decision: %+v", dec)
	}
	// A context that is already canceled fails fast without sending the
	// demand, leaving the stream intact.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := st.StepContext(canceled, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled StepContext: err = %v, want context.Canceled", err)
	}
	if dec, err = st.StepContext(ctx, 0.7); err != nil || dec.Tick != 1 {
		t.Fatalf("step after canceled step: %+v, %v", dec, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Finish(ctx, s.ID); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}
