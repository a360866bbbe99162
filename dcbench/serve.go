package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dcsprint/internal/service"
	"dcsprint/internal/sim"
	"dcsprint/internal/telemetry"
	"dcsprint/internal/workload"
)

// Workload shapes. The crowd fills every shard batch with ~500 resident
// sessions. Each durable session lives a fixed number of ticks, so snapshot
// and checkpoint cost grow with its age exactly as in production, while a
// faster daemon gets through more sessions instead of older ones: the ages
// measured, and so the figures, do not depend on throughput.
const (
	streams       = 2
	crowdSessions = 8000
	crowdTicks    = 600   // ticks each short crowd-workload session streams
	durableTicks  = 20000 // a durable session's life, ~5.5 h of one-second ticks
	roundTrip     = 2000  // durable ticks between snapshot→finish→restore trips
	daemonStarts  = 5     // set-up repetitions whose median is setup_s
	subWindows    = 10    // the window's slices whose median figures are reported
	warmup        = 3 * time.Second
	yahooDegree   = 3.2
	yahooDuration = 15 * time.Minute
)

type opKind int

const (
	opCreate opKind = iota
	opStep
	opSnapshot
	opRestore
	opFinish
	numOps
)

var opNames = [numOps]string{"create", "step", "snapshot", "restore", "finish"}

// opStats is one op kind's accounting.
type opStats struct {
	attempted, succeeded, failed, retried429 int64
}

func (a *opStats) add(b opStats) {
	a.attempted += b.attempted
	a.succeeded += b.succeeded
	a.failed += b.failed
	a.retried429 += b.retried429
}

// sessionRecord is everything needed to re-simulate one served session:
// its spec, the exact demands sent, and the Results the daemon returned
// when it was finished (at the end and, for durable sessions, at each
// snapshot→finish→restore trip).
type sessionRecord struct {
	spec        service.ScenarioSpec
	demands     []float64
	checkpoints []checkpoint
}

// checkpoint is a served Result, kept as the digest of its wire form so a
// run holds no copy of each aging session's history.
type checkpoint struct {
	ticks  int
	digest [sha256.Size]byte
}

func viewDigest(v service.ResultView) ([sha256.Size]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("encode Result: %w", err)
	}
	return sha256.Sum256(b), nil
}

// streamer is one of the load's client connections: a closed loop that
// sends its next request only after the previous reply.
type streamer struct {
	id   int
	c    *service.Client
	reg  *telemetry.Registry
	seed int64

	// The window: steps and latencies count while measuring and not yet
	// left. A stream that finds the deadline passed leaves the window,
	// checks in on barrier and waits on resume while the harness reads the
	// daemon's counters.
	start     time.Time
	deadline  time.Time
	measuring bool
	left      bool
	leftAt    time.Time
	barrier   *sync.WaitGroup
	resume    <-chan struct{}

	ops     [numOps]opStats
	stepped []stepSample
	ctlMs   dist
	steps   int64
	records []*sessionRecord
	live    []liveSession // open sessions: the crowd and those parked after the window
	err     error
}

// stepSample is one step round trip: when it started, in seconds into the
// window, and how long it took.
type stepSample struct{ at, us float64 }

type liveSession struct {
	id  string
	rec *sessionRecord
}

func newStreamer(id int, base string, seed int64) *streamer {
	reg := telemetry.NewRegistry()
	return &streamer{
		id:   id,
		seed: seed,
		reg:  reg,
		c: &service.Client{
			Base:     base,
			HTTP:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			Registry: reg,
		},
	}
}

// open reports whether the window is still open, leaving it on the first
// call that finds the deadline passed.
func (s *streamer) open() bool {
	if s.left {
		return false
	}
	if time.Now().Before(s.deadline) {
		return true
	}
	s.leave()
	<-s.resume
	return false
}

// leave closes the window for this stream: nothing after it is counted,
// sampled or traced.
func (s *streamer) leave() {
	s.left, s.leftAt = true, time.Now()
	s.c.Ops = nil
	s.barrier.Done()
}

func (s *streamer) sampling() bool {
	return s.measuring && !s.left && !time.Now().Before(s.start)
}

// ctl runs one unary op under the accounting, retrying 429 refusals. Its
// latency, refusals included, is sampled when it starts inside the window.
func (s *streamer) ctl(kind opKind, fn func() error) error {
	st := &s.ops[kind]
	st.attempted++
	t0 := time.Now()
	sampled := s.sampling()
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			st.succeeded++
			if sampled {
				s.ctlMs.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
			}
			return nil
		}
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests && attempt < 100 {
			st.retried429++
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			continue
		}
		st.failed++
		return fmt.Errorf("%s: %w", opNames[kind], err)
	}
}

// step sends one demand on the stream and counts it, with its round trip,
// when it starts inside the window. StepContext retries 429s itself,
// counted in the client registry.
func (s *streamer) step(ctx context.Context, st *service.Stream, rec *sessionRecord, demand float64) error {
	a := &s.ops[opStep]
	a.attempted++
	sampled := s.sampling()
	t0 := time.Now()
	if _, err := st.StepContext(ctx, demand); err != nil {
		a.failed++
		return fmt.Errorf("step %d: %w", len(rec.demands), err)
	}
	a.succeeded++
	rec.demands = append(rec.demands, demand)
	if sampled {
		s.stepped = append(s.stepped, stepSample{
			at: t0.Sub(s.start).Seconds(),
			us: float64(time.Since(t0).Nanoseconds()) / 1e3,
		})
		s.steps++
	}
	return nil
}

func (s *streamer) create(ctx context.Context, spec service.ScenarioSpec) (string, error) {
	var id string
	err := s.ctl(opCreate, func() error {
		sess, err := s.c.Create(ctx, spec)
		if err == nil {
			id = sess.ID
		}
		return err
	})
	return id, err
}

// finish finishes the session and keeps its Result's digest; the digest is
// taken outside the timed op, since it is the benchmark's work.
func (s *streamer) finish(ctx context.Context, id string, rec *sessionRecord) error {
	var v service.ResultView
	if err := s.ctl(opFinish, func() (err error) {
		v, err = s.c.Finish(ctx, id)
		return err
	}); err != nil {
		return err
	}
	d, err := viewDigest(v)
	if err != nil {
		return err
	}
	rec.checkpoints = append(rec.checkpoints, checkpoint{ticks: len(rec.demands), digest: d})
	return nil
}

func (s *streamer) park(id string, rec *sessionRecord) {
	s.live = append(s.live, liveSession{id, rec})
}

// finishLive finishes every open session; their Results join the records.
func (s *streamer) finishLive(ctx context.Context) error {
	for _, l := range s.live {
		if err := s.finish(ctx, l.id, l.rec); err != nil {
			return err
		}
		s.records = append(s.records, l.rec)
	}
	s.live = nil
	return nil
}

// yahooSpec is a crowd session: the seeded synthetic Yahoo burst, whose
// burst starts at minute 5, so the first crowdTicks ticks include sprinting.
func yahooSpec(name string, seed int64) service.ScenarioSpec {
	return service.ScenarioSpec{
		Name: name,
		Trace: &service.TraceSpec{Kind: "yahoo", Seed: seed, Degree: yahooDegree,
			DurationSeconds: yahooDuration.Seconds()},
	}
}

func yahooSamples(seed int64) ([]float64, error) {
	tr, err := workload.SyntheticYahoo(seed, yahooDegree, yahooDuration)
	if err != nil {
		return nil, err
	}
	return tr.Samples, nil
}

// runCrowd cycles short sessions: create, stream the first crowdTicks
// ticks of the session's own trace, finish.
func (s *streamer) runCrowd(ctx context.Context) error {
	for k := 0; s.open(); k++ {
		seed := s.seed*1_000_003 + int64(s.id)*100_000 + int64(k)
		samples, err := yahooSamples(seed)
		if err != nil {
			return err
		}
		rec := &sessionRecord{spec: yahooSpec(fmt.Sprintf("short-%d-%d", s.id, k), seed)}
		id, err := s.create(ctx, rec.spec)
		if err != nil {
			return err
		}
		st, err := s.c.Stream(ctx, id)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		for i := 0; i < crowdTicks && s.open(); i++ {
			if err := s.step(ctx, st, rec, samples[i]); err != nil {
				st.Close() //nolint:errcheck // failing anyway
				return err
			}
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close stream: %w", err)
		}
		if len(rec.demands) < crowdTicks {
			s.park(id, rec)
			return nil
		}
		if err := s.finish(ctx, id, rec); err != nil {
			return err
		}
		s.records = append(s.records, rec)
	}
	return nil
}

// durableDemand is a seeded day at one-second ticks: the Fig-1 day trace
// scaled to the §V-D 4 GB/s capacity, as E11 runs it, so its bursts sprint
// through all three phases without tripping.
func durableDemand(seed int64) ([]float64, error) {
	day, err := workload.SyntheticMSDay(seed)
	if err != nil {
		return nil, err
	}
	day, err = day.Scale(0.25).Resample(time.Second)
	if err != nil {
		return nil, err
	}
	return day.Samples, nil
}

// runDurable drives unbounded sessions of durableTicks ticks each from tick
// 0, with a snapshot→finish→restore→resume trip every roundTrip ticks. The
// session open when the window closes runs on to the end of its life and
// is parked there, so the daemon is sized with sessions of a fixed age.
func (s *streamer) runDurable(ctx context.Context) error {
	day, err := durableDemand(s.seed*7919 + int64(s.id))
	if err != nil {
		return err
	}
	for life := 0; ; life++ {
		rec := &sessionRecord{spec: service.ScenarioSpec{Name: fmt.Sprintf("durable-%d-%d", s.id, life)}}
		id, err := s.create(ctx, rec.spec)
		if err != nil {
			return err
		}
		st, err := s.c.Stream(ctx, id)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		for tick := 0; tick < durableTicks; tick++ {
			s.open()
			if tick > 0 && tick%roundTrip == 0 {
				if st, id, err = s.roundTrip(ctx, st, id, rec); err != nil {
					return err
				}
			}
			if err := s.step(ctx, st, rec, day[(life*durableTicks+tick)%len(day)]); err != nil {
				st.Close() //nolint:errcheck // failing anyway
				return err
			}
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close stream: %w", err)
		}
		if s.left {
			s.park(id, rec)
			return nil
		}
		if err := s.finish(ctx, id, rec); err != nil {
			return err
		}
		s.records = append(s.records, rec)
	}
}

// roundTrip checkpoints the session, finishes it (the Result at this tick
// is verified later), restores the checkpoint as a new session and resumes
// streaming it.
func (s *streamer) roundTrip(ctx context.Context, st *service.Stream, id string, rec *sessionRecord) (*service.Stream, string, error) {
	if err := st.Close(); err != nil {
		return nil, "", fmt.Errorf("close stream: %w", err)
	}
	var doc service.SnapshotDoc
	if err := s.ctl(opSnapshot, func() (err error) {
		doc, err = s.c.Snapshot(ctx, id)
		return err
	}); err != nil {
		return nil, "", err
	}
	if err := s.finish(ctx, id, rec); err != nil {
		return nil, "", err
	}
	if err := s.ctl(opRestore, func() error {
		sess, err := s.c.Restore(ctx, doc)
		if err == nil {
			id = sess.ID
		}
		return err
	}); err != nil {
		return nil, "", err
	}
	st, err := s.c.Stream(ctx, id)
	if err != nil {
		return nil, "", fmt.Errorf("stream restored: %w", err)
	}
	if want := int64(len(rec.demands)); st.Tick() != want {
		st.Close() //nolint:errcheck // failing anyway
		return nil, "", fmt.Errorf("restored session greets at tick %d, want %d", st.Tick(), want)
	}
	return st, id, nil
}

// serveRun is what one timed window against one daemon measured.
type serveRun struct {
	setupS     float64
	steps      int64   // steps started inside the window
	phaseS     float64 // window start until the last stream left it
	stepUs     dist
	sub        [subWindows]slice
	ctlMs      dist
	loadCPUS   float64
	heapKiB    float64 // per live session
	peakRSSMiB float64
	io         ioCounters
	gcPauseS   float64
	stateBytes float64 // per live session
	ops        [numOps]opStats
	records    []*sessionRecord
	spans      *stages
}

func rusageSelfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runServe starts the daemon (daemonStarts times, keeping the last), builds
// the crowd on serve-crowd, runs the streams for window, and measures the
// daemon from the outside. With traced set the daemon writes its spans and
// the clients record theirs, and the joined stages are returned.
func runServe(ctx context.Context, cfg config, window time.Duration, traced bool) (*serveRun, error) {
	dir, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		run    serveRun
		d      *daemon
		starts []float64
	)
	for i := 0; i < daemonStarts; i++ {
		args := []string{"-drain", "5s"}
		switch cfg.workload {
		case "serve-crowd":
			args = append(args, "-max-sessions", "16384", "-idle-ttl", "0")
		case "serve-durable":
			args = append(args, "-state-dir", filepath.Join(dir, fmt.Sprintf("state-%d", i)))
		}
		if traced && i == daemonStarts-1 {
			args = append(args, "-span-out", filepath.Join(dir, "server-spans.jsonl"))
		}
		s0 := time.Now()
		if d, err = startDaemon(ctx, cfg.daemonBin, args...); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(s0).Seconds())
		if i < daemonStarts-1 {
			// A set-up daemon may take SIGTERM before its handler is
			// installed; dying of the signal is then a clean stop.
			if err := d.stop(); err != nil && !killedBy(err, syscall.SIGTERM) {
				return nil, fmt.Errorf("stop set-up daemon: %w", err)
			}
		}
	}
	alive := true
	defer func() {
		if alive {
			d.kill() //nolint:errcheck // error path teardown
		}
	}()
	ss := make([]*streamer, streams)
	for i := range ss {
		ss[i] = newStreamer(i, d.base, cfg.seed)
	}
	var crowdS float64
	if cfg.workload == "serve-crowd" {
		c0 := time.Now()
		if err := buildCrowd(ctx, ss, cfg.seed); err != nil {
			return nil, err
		}
		crowdS = time.Since(c0).Seconds()
	}
	run.setupS = median(starts) + crowdS

	var clientOps *telemetry.OpLog
	if traced {
		clientOps = telemetry.NewOpLog(0)
		for _, s := range ss {
			s.c.Ops = clientOps
		}
	}
	// Start the window with the set-up's garbage collected, so whether a
	// collection of the crowd's heap lands inside the window does not
	// depend on where set-up left the collector's cycle.
	if _, err := d.liveHeap(); err != nil {
		return nil, err
	}
	// The streams run warmup before the window opens, so it measures the
	// loop's steady state rather than its first seconds.
	start := time.Now().Add(warmup)
	var (
		wg, barrier sync.WaitGroup
		resume      = make(chan struct{})
	)
	for _, s := range ss {
		s.start, s.deadline, s.measuring = start, start.Add(window), true
		s.barrier, s.resume = &barrier, resume
		barrier.Add(1)
		wg.Add(1)
		go func(s *streamer) {
			defer wg.Done()
			if cfg.workload == "serve-crowd" {
				s.err = s.runCrowd(ctx)
			} else {
				s.err = s.runDurable(ctx)
			}
			if !s.left {
				s.leave()
			}
		}(s)
	}
	time.Sleep(time.Until(start))
	// The daemon's CPU at each slice boundary.
	var (
		cpuAt     [subWindows + 1]float64
		sampleErr error
	)
	cpuAt[0], sampleErr = procCPU(d.pid)
	io0, ioErr := procIO(d.pid)
	m0, mErr := d.metrics()
	load0 := rusageSelfCPU()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= subWindows && sampleErr == nil; k++ {
			time.Sleep(time.Until(start.Add(window * time.Duration(k) / subWindows)))
			cpuAt[k], sampleErr = procCPU(d.pid)
		}
	}()
	// Every stream has left the window (or failed): read the counters
	// before any stream runs on.
	barrier.Wait()
	io1, ioErr1 := procIO(d.pid)
	run.loadCPUS = rusageSelfCPU() - load0
	m1, mErr1 := d.metrics()
	close(resume)
	wg.Wait()
	for _, s := range ss {
		if s.err != nil {
			return nil, fmt.Errorf("stream %d: %w", s.id, s.err)
		}
	}
	if err := errors.Join(sampleErr, ioErr, mErr, ioErr1, mErr1); err != nil {
		return nil, err
	}
	for _, s := range ss {
		run.steps += s.steps
		if d := s.leftAt.Sub(start).Seconds(); d > run.phaseS {
			run.phaseS = d
		}
	}
	run.sub = slices(ss, window, cpuAt)
	run.io = ioCounters{wchar: io1.wchar - io0.wchar, syscw: io1.syscw - io0.syscw}
	run.gcPauseS = m1["dcsprint_runtime_gc_pause_seconds_total"] - m0["dcsprint_runtime_gc_pause_seconds_total"]

	// Size the daemon with every open session, then again once they are
	// finished: the difference is what the sessions themselves hold.
	live := 0
	for _, s := range ss {
		live += len(s.live)
	}
	heapWith, err := d.liveHeap()
	if err != nil {
		return nil, err
	}
	if run.peakRSSMiB, err = peakRSSMiB(d.pid); err != nil {
		return nil, err
	}
	if cfg.workload == "serve-durable" {
		b, err := dirBytes(filepath.Join(dir, fmt.Sprintf("state-%d", daemonStarts-1)))
		if err != nil {
			return nil, err
		}
		run.stateBytes = float64(b) / float64(live)
	}

	errs := make([]error, len(ss))
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *streamer) {
			defer wg.Done()
			if err := s.finishLive(ctx); err != nil {
				errs[i] = fmt.Errorf("stream %d: %w", s.id, err)
			}
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	heapWithout, err := d.liveHeap()
	if err != nil {
		return nil, err
	}
	run.heapKiB = (heapWith - heapWithout) / float64(live) / 1024
	alive = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop dcsprintd: %w", err)
	}

	for _, s := range ss {
		for _, st := range s.stepped {
			run.stepUs.add(st.us)
		}
		run.ctlMs.vals = append(run.ctlMs.vals, s.ctlMs.vals...)
		run.records = append(run.records, s.records...)
		for k := range s.ops {
			run.ops[k].add(s.ops[k])
		}
		run.ops[opStep].retried429 += int64(s.reg.Counter("dcsprint_client_retries_total", "").Value())
	}

	if traced {
		f, err := os.Open(filepath.Join(dir, "server-spans.jsonl"))
		if err != nil {
			return nil, err
		}
		server, err := telemetry.ReadOpJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read server spans: %w", err)
		}
		st := joinSpans(clientOps.Spans(), server, start.UnixMicro(), math.MaxInt64)
		run.spans = &st
	}
	return &run, nil
}

// slice is one subWindows-th of the window: its step rate, step latency
// percentiles and daemon CPU per step.
type slice struct {
	stepsPerS, p50Us, p90Us, p99Us, cpuUsPerStep float64
}

// slices splits the window's steps by when they started.
func slices(ss []*streamer, window time.Duration, cpuAt [subWindows + 1]float64) [subWindows]slice {
	w := window.Seconds() / subWindows
	var lat [subWindows]dist
	for _, s := range ss {
		for _, st := range s.stepped {
			k := int(st.at / w)
			if k >= subWindows {
				k = subWindows - 1
			}
			lat[k].add(st.us)
		}
	}
	var out [subWindows]slice
	for k := range out {
		n := float64(lat[k].n())
		out[k] = slice{stepsPerS: n / w, p50Us: lat[k].q(0.5), p90Us: lat[k].q(0.9), p99Us: lat[k].q(0.99)}
		if n > 0 {
			out[k].cpuUsPerStep = (cpuAt[k+1] - cpuAt[k]) / n * 1e6
		}
	}
	return out
}

// sliceFigures lists each slice's figures, one slice per element.
func (r *serveRun) sliceFigures() (rate, p50, p90, p99, cpu []float64) {
	for _, sl := range r.sub {
		rate = append(rate, sl.stepsPerS)
		p50 = append(p50, sl.p50Us)
		p90 = append(p90, sl.p90Us)
		p99 = append(p99, sl.p99Us)
		cpu = append(cpu, sl.cpuUsPerStep)
	}
	return rate, p50, p90, p99, cpu
}

// buildCrowd creates crowdSessions resident sessions and steps each once,
// so every shard's batch holds live slots the sweeps walk past.
func buildCrowd(ctx context.Context, ss []*streamer, seed int64) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ss))
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *streamer) {
			defer wg.Done()
			for k := i; k < crowdSessions; k += len(ss) {
				cs := seed*1_000_003 + 50_000_000 + int64(k)
				samples, err := yahooSamples(cs)
				if err != nil {
					errs[i] = err
					return
				}
				rec := &sessionRecord{spec: yahooSpec(fmt.Sprintf("crowd-%d", k), cs)}
				id, err := s.create(ctx, rec.spec)
				if err != nil {
					errs[i] = err
					return
				}
				s.live = append(s.live, liveSession{id, rec})
				st, err := s.c.Stream(ctx, id)
				if err != nil {
					errs[i] = fmt.Errorf("crowd stream: %w", err)
					return
				}
				err = s.step(ctx, st, rec, samples[0])
				if cerr := st.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs[i] = fmt.Errorf("crowd: %w", err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func killedBy(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// replayStats is what the verification replay measured and found.
type replayStats struct {
	sessions, mismatches int
	runs, ticks          int64
	wallS                float64
	stepNs               dist
	snapshotUs           dist
	restoreUs            dist
	firstMismatch        string
}

// verify re-simulates every served session locally from the exact demands
// sent and requires each Result the daemon returned to be bit-identical.
// At every durable checkpoint the replica is snapshotted and restored (the
// replay continues on the restored engine), and the Result at that tick is
// taken from a second restore.
func verify(records []*sessionRecord) replayStats {
	var rs replayStats
	t0 := time.Now()
	for _, rec := range records {
		rs.sessions++
		if err := replayOne(rec, &rs); err != nil {
			rs.mismatches++
			if rs.firstMismatch == "" {
				rs.firstMismatch = fmt.Sprintf("%s: %v", rec.spec.Name, err)
			}
		}
	}
	rs.wallS = time.Since(t0).Seconds()
	return rs
}

func replayOne(rec *sessionRecord, rs *replayStats) error {
	sc, err := rec.spec.Build()
	if err != nil {
		return err
	}
	eng, err := sim.New(sc)
	if err != nil {
		return err
	}
	rs.runs++
	cp := rec.checkpoints
	for tick := 0; ; tick++ {
		for len(cp) > 0 && cp[0].ticks == tick {
			if len(cp) == 1 && tick == len(rec.demands) {
				res, err := eng.Finish()
				if err != nil {
					return err
				}
				return sameResult(res, cp[0].digest, tick)
			}
			t0 := time.Now()
			snap, err := eng.Snapshot()
			if err != nil {
				return err
			}
			rs.snapshotUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
			t1 := time.Now()
			next, err := sim.Restore(sc, snap)
			if err != nil {
				return err
			}
			rs.restoreUs.add(float64(time.Since(t1).Nanoseconds()) / 1e3)
			at, err := sim.Restore(sc, snap)
			if err != nil {
				return err
			}
			res, err := at.Finish()
			if err != nil {
				return err
			}
			if err := sameResult(res, cp[0].digest, tick); err != nil {
				return err
			}
			eng, cp = next, cp[1:]
		}
		if tick == len(rec.demands) {
			return fmt.Errorf("%d checkpoints past the last of %d ticks", len(cp), tick)
		}
		t0 := time.Now()
		if _, err := eng.Step(rec.demands[tick]); err != nil {
			return fmt.Errorf("replay step %d: %w", tick, err)
		}
		rs.stepNs.add(float64(time.Since(t0).Nanoseconds()))
		rs.ticks++
	}
}

func sameResult(res *sim.Result, served [sha256.Size]byte, tick int) error {
	local, err := viewDigest(service.NewResultView(res))
	if err != nil {
		return err
	}
	if local != served {
		return fmt.Errorf("Result at tick %d differs from the local re-simulation", tick)
	}
	return nil
}
