// Command dcbench is dcsprint's end-to-end benchmark. It runs one workload
// for a fixed window and prints, as the last line of standard output, one
// JSON object: whether every output was correct, how many operations were
// attempted and failed, and the metrics. With -trace 0 those are the
// end-to-end metrics; with -trace 1, the per-layer ones from a traced run.
//
//	bash dcbench/run.sh --workload serve-crowd --seed 1 --seconds 20 --trace 0
//
// run.sh builds dcsprintd, cmd/experiments and this harness from the
// checkout into .bench_build and then runs the harness from the repository
// root. See README.md beside this file for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dcsprint"
)

type config struct {
	workload       string
	seed           int64
	seconds        int
	trace          bool
	root           string
	work           string // scratch directory inside the build directory
	daemonBin      string
	experimentsBin string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type spec struct{ name, unit string }

// endToEnd are the metrics a user of dcsprint sees, reported with -trace 0
// on every workload. README.md defines each one per workload.
var endToEnd = []spec{
	{"steps_per_s", "1/s"},
	{"step_p50_us", "us"},
	{"step_p90_us", "us"},
	{"ctl_p90_ms", "ms"},
	{"server_cpu_us_per_step", "us"},
	{"heap_per_session_kib", "KiB"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0, with a 0 sample count where it has one.
var perLayer = func() []spec {
	l := []spec{
		{"step_p99_us", "us"},
		{"http.step_overhead_us.p50", "us"}, {"http.step_overhead_us.n", "count"},
		{"http.ctl_overhead_ms.p50", "ms"}, {"http.ctl_overhead_ms.n", "count"},
		{"service.queue_wait_us.p50", "us"}, {"service.queue_wait_us.p99", "us"}, {"service.queue_wait_us.n", "count"},
		{"service.step_us.p50", "us"}, {"service.step_us.p99", "us"}, {"service.step_us.n", "count"},
		{"service.admission_ms.p50", "ms"}, {"service.admission_ms.n", "count"},
		{"service.snapshot_ms.p50", "ms"}, {"service.snapshot_ms.n", "count"},
		{"service.finish_ms.p50", "ms"}, {"service.finish_ms.n", "count"},
		{"service.snapshot_bytes", "count"},
		{"sim.engine_step_ns", "ns"}, {"sim.engine_step_ns.n", "count"},
		{"sim.snapshot_us", "us"}, {"sim.snapshot_us.n", "count"},
		{"sim.restore_us", "us"}, {"sim.restore_us.n", "count"},
		{"sim.runs", "count"}, {"sim.ticks", "count"}, {"sim.ticks_per_s", "1/s"},
		{"campaign.bound_table_s", "s"}, {"campaign.cpu_util", "ratio"},
		{"repro.total_s", "s"},
	}
	for _, s := range sections {
		l = append(l, spec{"repro." + s + "_s", "s"})
	}
	l = append(l,
		spec{"durability.write_bytes_per_step", "B"},
		spec{"durability.write_syscalls_per_step", "count"},
		spec{"durability.state_dir_bytes_per_session", "B"},
		spec{"runtime.gc_pause_us_per_step", "us"},
		spec{"load.cpu_us_per_step", "us"},
		spec{"trace.overhead_frac", "ratio"},
		spec{"failed_frac", "ratio"},
		spec{"verify.sessions", "count"},
	)
	for _, op := range opNames {
		for _, f := range []string{"attempted", "succeeded", "failed", "retried_429"} {
			l = append(l, spec{"ops." + op + "." + f, "count"})
		}
	}
	return l
}()

var workloads = []string{"serve-crowd", "serve-durable", "reproduce"}

func main() {
	// The load generator collects garbage less often, so its collector
	// competes less with the daemon for the cores.
	debug.SetGCPercent(400)
	res, err := run(os.Args[1:], os.Stdout)
	if res != nil {
		b, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", merr)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}

// report accumulates one run's outcome and metric values.
type report struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setDist records a timing's median and sample count under name.p50/name.n.
func (r *report) setDist(name string, d *dist, ps ...float64) {
	for _, p := range ps {
		r.set(fmt.Sprintf("%s.p%g", name, p*100), d.q(p))
	}
	r.set(name+".n", float64(d.n()))
}

func (r *report) result(specs []spec) *result {
	out := &result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, s := range specs {
		out.Metrics[s.name] = metric{Value: r.values[s.name], Unit: s.unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	return out
}

func run(args []string, stdout io.Writer) (*result, error) {
	fset := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
		bin   string
	)
	fset.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fset.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fset.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	fset.IntVar(&trace, "trace", 0, "1 runs traced and reports the per-layer metrics")
	fset.StringVar(&cfg.root, "root", ".", "repository root")
	fset.StringVar(&bin, "bin", ".bench_build", "directory holding the built dcsprintd and experiments")
	if err := fset.Parse(args); err != nil {
		return nil, err
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1")
	}
	found := false
	for _, w := range workloads {
		found = found || w == cfg.workload
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	cfg.daemonBin = filepath.Join(bin, "dcsprintd")
	cfg.experimentsBin = filepath.Join(bin, "experiments")
	for _, b := range []string{cfg.daemonBin, cfg.experimentsBin} {
		if _, err := os.Stat(b); err != nil {
			return nil, fmt.Errorf("missing binary (build with run.sh): %w", err)
		}
	}
	work, err := os.MkdirTemp(bin, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work

	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "commit": commit(cfg.root),
	}
	sb, _ := json.Marshal(map[string]any{"stamp": stamp}) // map of plain values: cannot fail
	fmt.Fprintln(stdout, string(sb))

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep := &report{correct: true, values: map[string]float64{}}
	if cfg.workload == "reproduce" {
		err = runReproduceWorkload(ctx, cfg, rep, stdout)
	} else {
		err = runServeWorkload(ctx, cfg, rep, stdout)
	}
	if err != nil {
		rep.correct = false
		rep.failed++
	}
	if rep.attempted > 0 {
		rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted))
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	return rep.result(specs), err
}

func (r *report) setOps(ops [numOps]opStats) {
	for k, st := range ops {
		p := "ops." + opNames[k] + "."
		r.set(p+"attempted", float64(st.attempted))
		r.set(p+"succeeded", float64(st.succeeded))
		r.set(p+"failed", float64(st.failed))
		r.set(p+"retried_429", float64(st.retried429))
		r.attempted += st.attempted
		r.failed += st.failed
	}
}

func printOps(w io.Writer, ops [numOps]opStats) {
	fmt.Fprintf(w, "%-9s %10s %10s %7s %12s\n", "op", "attempted", "succeeded", "failed", "429-retried")
	for k, st := range ops {
		fmt.Fprintf(w, "%-9s %10d %10d %7d %12d\n", opNames[k], st.attempted, st.succeeded, st.failed, st.retried429)
	}
}

// checkVerify folds a verification replay into the report.
func (r *report) checkVerify(w io.Writer, rs replayStats) {
	r.attempted += int64(rs.sessions)
	r.failed += int64(rs.mismatches)
	if rs.mismatches > 0 {
		r.correct = false
	}
	fmt.Fprintf(w, "verified: %d/%d served sessions bit-identical to local re-simulation (%d ticks)\n",
		rs.sessions-rs.mismatches, rs.sessions, rs.ticks)
	if rs.firstMismatch != "" {
		fmt.Fprintf(w, "first mismatch: %s\n", rs.firstMismatch)
	}
}

func runServeWorkload(ctx context.Context, cfg config, rep *report, w io.Writer) error {
	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		u, err := runServe(ctx, cfg, window, false)
		if err != nil {
			return err
		}
		rep.setOps(u.ops)
		rs := verify(u.records)
		rep.checkVerify(w, rs)
		printOps(w, u.ops)
		rate, p50, p90, p99, cpu := u.sliceFigures()
		fmt.Fprintf(w, "steps %d in %.3fs; per slice: steps/s %.0f, step p50 %.1fus, p90 %.1fus, p99 %.1fus (n=%d per slice; tail rule allows p%g)\n",
			u.steps, u.phaseS, rate, p50, p90, p99, u.stepUs.n()/subWindows, tailPercentile(u.stepUs.n()/subWindows)*100)
		fmt.Fprintf(w, "ctl p90 %.2fms (n=%d; tail rule allows p%g)\n",
			u.ctlMs.q(0.9), u.ctlMs.n(), tailPercentile(u.ctlMs.n())*100)
		rep.set("steps_per_s", median(rate))
		rep.set("step_p50_us", median(p50))
		rep.set("step_p90_us", median(p90))
		rep.set("ctl_p90_ms", u.ctlMs.q(0.9))
		rep.set("server_cpu_us_per_step", median(cpu))
		rep.set("heap_per_session_kib", u.heapKiB)
		rep.set("peak_rss_mib", u.peakRSSMiB)
		rep.set("setup_s", u.setupS)
		return nil
	}
	// Traced: an untraced half window for the counters and the tracing
	// overhead baseline, then a traced half window for the spans.
	half := window / 2
	u, err := runServe(ctx, cfg, half, false)
	if err != nil {
		return err
	}
	t, err := runServe(ctx, cfg, half, true)
	if err != nil {
		return err
	}
	ops := u.ops
	for k := range ops {
		ops[k].add(t.ops[k])
	}
	rep.setOps(ops)
	printOps(w, ops)
	rs := verify(append(u.records, t.records...))
	rep.checkVerify(w, rs)

	_, _, _, p99, _ := u.sliceFigures()
	rep.set("step_p99_us", median(p99))
	st := t.spans
	fmt.Fprintf(w, "traced: %d client spans without a joined server span\n", st.unjoined)
	rep.setDist("http.step_overhead_us", &st.stepOverheadUs, 0.5)
	rep.setDist("http.ctl_overhead_ms", &st.ctlOverheadMs, 0.5)
	rep.setDist("service.queue_wait_us", &st.queueWaitUs, 0.5, 0.99)
	rep.setDist("service.step_us", &st.stepUs, 0.5, 0.99)
	rep.setDist("service.admission_ms", &st.admissionMs, 0.5)
	rep.setDist("service.snapshot_ms", &st.snapshotMs, 0.5)
	rep.setDist("service.finish_ms", &st.finishMs, 0.5)
	rep.set("service.snapshot_bytes", st.snapshotBytes.q(0.5))

	rep.set("sim.engine_step_ns", rs.stepNs.q(0.5))
	rep.set("sim.engine_step_ns.n", float64(rs.stepNs.n()))
	rep.set("sim.snapshot_us", rs.snapshotUs.q(0.5))
	rep.set("sim.snapshot_us.n", float64(rs.snapshotUs.n()))
	rep.set("sim.restore_us", rs.restoreUs.q(0.5))
	rep.set("sim.restore_us.n", float64(rs.restoreUs.n()))
	rep.set("sim.runs", float64(rs.runs))
	rep.set("sim.ticks", float64(rs.ticks))
	if rs.wallS > 0 {
		rep.set("sim.ticks_per_s", float64(rs.ticks)/rs.wallS)
	}

	steps := float64(u.steps)
	rep.set("durability.write_bytes_per_step", float64(u.io.wchar)/steps)
	rep.set("durability.write_syscalls_per_step", float64(u.io.syscw)/steps)
	rep.set("durability.state_dir_bytes_per_session", u.stateBytes)
	rep.set("runtime.gc_pause_us_per_step", u.gcPauseS/steps*1e6)
	rep.set("load.cpu_us_per_step", u.loadCPUS/steps*1e6)
	untraced, traced := float64(u.steps)/u.phaseS, float64(t.steps)/t.phaseS
	rep.set("trace.overhead_frac", (untraced-traced)/untraced)
	rep.set("verify.sessions", float64(rs.sessions))
	fmt.Fprintf(w, "untraced %.0f steps/s, traced %.0f steps/s\n", untraced, traced)
	return nil
}

const launches = 9 // fresh-process launches whose median is reproduce's setup_s

func runReproduceWorkload(ctx context.Context, cfg config, rep *report, w io.Writer) error {
	var starts []float64
	for i := 0; i < launches; i++ {
		s, err := launchS(ctx, cfg)
		if err != nil {
			return err
		}
		starts = append(starts, s)
	}
	rep.set("setup_s", median(starts))

	var want string
	if cfg.seed == 1 {
		var err error
		if want, err = expectedOutput(cfg.root); err != nil {
			return err
		}
	}
	load0 := rusageSelfCPU()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var reps []*reproduction
	for {
		rep.attempted++
		r, err := reproduce(ctx, cfg, cfg.seed)
		if err != nil {
			return err
		}
		switch {
		case cfg.seed == 1 && r.output != want:
			rep.failed++
			rep.correct = false
			fmt.Fprintf(w, "reproduction %d differs from experiments_output.txt + pinned E16: %s\n",
				len(reps)+1, firstDiff(r.output, want))
		case len(reps) > 0 && (r.output != reps[0].output || r.ticks != reps[0].ticks || r.runs != reps[0].runs):
			rep.failed++
			rep.correct = false
			fmt.Fprintf(w, "reproduction %d differs from reproduction 1: %s\n",
				len(reps)+1, firstDiff(r.output, reps[0].output))
		}
		reps = append(reps, r)
		// Start another reproduction only if it should end inside the window.
		if time.Now().Add(time.Duration(r.wallS * float64(time.Second))).After(deadline) {
			break
		}
	}
	loadCPU := rusageSelfCPU() - load0
	var wall, sps, cpu, rss, util []float64
	for _, r := range reps {
		wall = append(wall, r.wallS)
		sps = append(sps, r.ticks/r.wallS)
		cpu = append(cpu, r.cpuS/r.ticks*1e6)
		rss = append(rss, r.maxRSSMiB)
		util = append(util, r.cpuS/(r.wallS*float64(runtime.NumCPU())))
	}
	fmt.Fprintf(w, "reproductions: %d, wall %v s, %.0f runs, %.0f ticks\n", len(reps), wall, reps[0].runs, reps[0].ticks)
	if cfg.seed == 1 && rep.correct {
		fmt.Fprintln(w, "reproduction matches experiments_output.txt (E1-E15) and the pinned E16")
	}

	rep.attempted++
	day, err := replayDays()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "day replays: %d x %d ticks through %d snapshot/restore checkpoints, Result identical to sim.Run\n",
		dayReplays, day.steps/dayReplays, day.checkpoints/dayReplays)
	rep.set("steps_per_s", median(sps))
	rep.set("step_p50_us", median(day.stepP50Us))
	rep.set("step_p90_us", median(day.stepP90Us))
	rep.set("ctl_p90_ms", median(day.ctlP90Ms))
	rep.set("server_cpu_us_per_step", median(cpu))
	rep.set("heap_per_session_kib", day.heapKiB)
	rep.set("peak_rss_mib", median(rss))

	if !cfg.trace {
		return nil
	}
	rep.set("step_p99_us", median(day.stepP99Us))
	rep.set("repro.total_s", median(wall))
	for i, s := range sections {
		var v []float64
		for _, r := range reps {
			v = append(v, r.sectionS[i])
		}
		rep.set("repro."+s+"_s", median(v))
	}
	rep.set("campaign.cpu_util", median(util))
	rep.set("sim.runs", reps[0].runs)
	rep.set("sim.ticks", reps[0].ticks)
	rep.set("sim.ticks_per_s", median(sps))
	rep.set("sim.engine_step_ns", median(day.stepP50Us)*1e3)
	rep.set("sim.engine_step_ns.n", float64(day.steps))
	rep.set("sim.snapshot_us", median(day.snapP50Us))
	rep.set("sim.snapshot_us.n", float64(day.checkpoints))
	rep.set("sim.restore_us", median(day.restoreP50Us))
	rep.set("sim.restore_us.n", float64(day.checkpoints))
	rep.set("load.cpu_us_per_step", loadCPU/reps[0].ticks/float64(len(reps))*1e6)

	// The harness has never built a bound table, so this call pays the same
	// cold cache a fresh reproduction does.
	t0 := time.Now()
	if _, err := dcsprint.StandardBoundTable(cfg.seed); err != nil {
		return fmt.Errorf("bound table: %w", err)
	}
	rep.set("campaign.bound_table_s", time.Since(t0).Seconds())
	return nil
}

// commit identifies the code measured: the git revision when the checkout
// is a repository, else a digest of every file outside the build directory.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (e.Name() == ".bench_build" || e.Name() == ".git") {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
