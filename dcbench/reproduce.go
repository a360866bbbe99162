package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/trace"
)

// sections are the cmd/experiments sections in the order it prints them;
// each starts with a "== " header line.
var sections = []string{"fig2", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11",
	"headroom", "pue", "notes", "reserve", "skew", "capping", "adaptive", "outage",
	"endurance", "chippcm", "day", "burstiness", "montecarlo", "plan", "chaos", "fleet"}

// e16Seed1 pins the E16 section for the default seed: the committed
// experiments_output.txt ends at E15.
//
//go:embed testdata/e16_seed1.txt
var e16Seed1 string

// reproduction is one fresh-process run of the whole paper reproduction.
type reproduction struct {
	wallS     float64
	cpuS      float64
	maxRSSMiB float64
	sectionS  []float64
	output    string
	runs      float64
	ticks     float64
}

// reproduce runs cmd/experiments once in a fresh process, so the per-seed
// bound-table cache starts cold, timestamping each section header as it
// arrives on the pipe.
func reproduce(ctx context.Context, cfg config, seed int64) (*reproduction, error) {
	metricsFile := filepath.Join(cfg.work, fmt.Sprintf("repro-%d.prom", os.Getpid()))
	defer os.Remove(metricsFile)
	cmd := exec.CommandContext(ctx, cfg.experimentsBin, "-seed", strconv.FormatInt(seed, 10),
		"-parallel", strconv.Itoa(runtime.NumCPU()), "-metrics", metricsFile)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var (
		buf     strings.Builder
		headers []time.Time
	)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start experiments: %w", err)
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			headers = append(headers, time.Now())
		}
		if !strings.HasPrefix(line, "metrics written to ") {
			buf.WriteString(line + "\n")
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("read experiments output: %w", scanErr)
	}
	end := time.Now()
	r := &reproduction{wallS: end.Sub(t0).Seconds(), output: buf.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSMiB = float64(ru.Maxrss) / 1024
	}
	r.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if len(headers) != len(sections) {
		return nil, fmt.Errorf("experiments printed %d sections, want %d", len(headers), len(sections))
	}
	for i, h := range headers {
		next := end
		if i+1 < len(headers) {
			next = headers[i+1]
		}
		r.sectionS = append(r.sectionS, next.Sub(h).Seconds())
	}
	f, err := os.Open(metricsFile)
	if err != nil {
		return nil, err
	}
	samples, err := telemetry.ParsePrometheus(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("parse experiments metrics: %w", err)
	}
	for _, s := range samples {
		switch s.Name {
		case "dcsprint_sim_runs_total":
			r.runs = s.Value
		case "dcsprint_sim_run_ticks_total":
			r.ticks = s.Value
		}
	}
	if r.ticks <= 0 {
		return nil, fmt.Errorf("experiments metrics report no simulated ticks")
	}
	return r, nil
}

// expectedOutput is the reproduction's pinned output for the default seed:
// experiments_output.txt up to its E16 section, if any, then the pinned E16.
func expectedOutput(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return "", err
	}
	s := string(b)
	if i := strings.Index(s, "== E16"); i >= 0 {
		s = s[:i]
	}
	return s + e16Seed1, nil
}

// firstDiff names the first differing line of two outputs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "identical"
}

// The day replay: E11's day at one-second ticks, stepped one
// Engine.Step at a time and checkpointed through Engine.Snapshot and
// sim.Restore every dayCheckpoint ticks. It always replays E11's own seed,
// so its figures do not move with the workload seed, and it is repeated
// dayReplays times so each figure is a median of per-replay figures.
const (
	e11Seed       = 1
	dayReplays    = 5
	dayCheckpoint = 800 // 107 checkpoints a day: enough for a p90
)

// replayReport holds one figure per replay; n counts the samples behind
// them all.
type replayReport struct {
	stepP50Us, stepP90Us, stepP99Us, ctlP90Ms, snapP50Us, restoreP50Us []float64
	steps, checkpoints                                                 int
	heapKiB                                                            float64
}

// replayDays runs the day replays. Each continues on the restored engine
// after every checkpoint and must end with the same Result as a straight
// sim.Run of the day.
func replayDays() (*replayReport, error) {
	demand, err := durableDemand(e11Seed)
	if err != nil {
		return nil, err
	}
	tr, err := trace.New(time.Second, demand)
	if err != nil {
		return nil, err
	}
	sc := sim.Scenario{Name: "replay-day", Trace: tr}
	want, err := sim.Run(sc)
	if err != nil {
		return nil, err
	}
	wantDigest, err := viewDigest(service.NewResultView(want))
	if err != nil {
		return nil, err
	}
	rep := &replayReport{}
	for r := 0; r < dayReplays; r++ {
		var step, ctl, snap, restore dist
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		eng, err := sim.New(sc)
		if err != nil {
			return nil, err
		}
		for i, v := range demand {
			if i > 0 && i%dayCheckpoint == 0 {
				t0 := time.Now()
				b, err := eng.Snapshot()
				if err != nil {
					return nil, err
				}
				t1 := time.Now()
				if eng, err = sim.Restore(sc, b); err != nil {
					return nil, err
				}
				t2 := time.Now()
				snap.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
				restore.add(float64(t2.Sub(t1).Nanoseconds()) / 1e3)
				ctl.add(float64(t2.Sub(t0).Nanoseconds()) / 1e6)
			}
			t0 := time.Now()
			if _, err := eng.Step(v); err != nil {
				return nil, fmt.Errorf("replay step %d: %w", i, err)
			}
			step.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		}
		res, err := eng.Finish()
		if err != nil {
			return nil, err
		}
		if err := sameResult(res, wantDigest, len(demand)); err != nil {
			return nil, fmt.Errorf("day replay through %d checkpoints: %w", ctl.n(), err)
		}
		// What a finished day-long engine holds.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(eng)
		rep.heapKiB = (float64(ms.HeapAlloc) - float64(base)) / 1024
		rep.stepP50Us = append(rep.stepP50Us, step.q(0.5))
		rep.stepP90Us = append(rep.stepP90Us, step.q(0.9))
		rep.stepP99Us = append(rep.stepP99Us, step.q(0.99))
		rep.ctlP90Ms = append(rep.ctlP90Ms, ctl.q(0.9))
		rep.snapP50Us = append(rep.snapP50Us, snap.q(0.5))
		rep.restoreP50Us = append(rep.restoreP50Us, restore.q(0.5))
		rep.steps += step.n()
		rep.checkpoints += ctl.n()
	}
	return rep, nil
}

// launchS is one fresh experiments process printing its cheapest section:
// the set-up every reproduction pays before any simulation.
func launchS(ctx context.Context, cfg config) (float64, error) {
	t0 := time.Now()
	out, err := exec.CommandContext(ctx, cfg.experimentsBin, "-run", "fig2").Output()
	if err != nil {
		return 0, fmt.Errorf("experiments -run fig2: %w", err)
	}
	if !bytes.HasPrefix(out, []byte("== Fig 2")) {
		return 0, fmt.Errorf("experiments -run fig2 printed %q", firstLine(out))
	}
	return time.Since(t0).Seconds(), nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}
