package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcsprint/internal/telemetry"
)

func TestRunFastSubset(t *testing.T) {
	// The cheap experiments exercise the full printing path.
	if err := run([]string{"-run", "fig2,fig5,fig8,fig11,notes,skew,capping,outage,endurance,chippcm"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.prom")
	if err := run([]string{"-run", "fig5", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := telemetry.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "dcsprint_sim_runs_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dcsprint_sim_runs_total >= 1 in snapshot: %v", samples)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunMediumSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("medium experiments")
	}
	if err := run([]string{"-run", "fig4,reserve,day,burstiness,montecarlo,headroom,pue,adaptive"}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOutput is the behaviour oracle for the whole reproduction: seed
// 1 must print experiments_output.txt byte for byte. Every figure is
// deterministic, so any diff is a real behaviour change; regenerate the file
// with `go run ./cmd/experiments > experiments_output.txt` only when the
// change is intended, and update EXPERIMENTS.md with it.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return run([]string{"-seed", "1"}) })
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from experiments_output.txt at line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a read error surfaces as a diff
		out <- string(b)
	}()
	runErr := fn()
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}
