// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can archive benchmark runs as machine-readable
// artifacts (BENCH_PR3.json) and diff them across PRs.
//
//	go test -bench . -benchmem -count 3 ./... | benchjson -out BENCH_PR3.json
//
// Repeated runs of the same benchmark (-count N) are aggregated into
// mean/min/max per metric; every ReportMetric unit is preserved alongside
// the standard ns/op, B/op and allocs/op columns.
//
// With -baseline <file> and one or more -gate <Name>:<unit> flags the run
// also compares the current report against a previously archived one and
// exits non-zero when a gated metric's mean regressed (grew) relative to the
// baseline, which is how CI pins the engine's allocs/op at zero:
//
//	benchjson -out BENCH_PR5.json -baseline BENCH_PR4.json -gate EngineStep:allocs/op
//
// -min and -max <Name>:<unit>:<value> are absolute gates that need no
// baseline: -min fails when the metric's mean falls below value (throughput
// floors such as steps/s), -max fails when it rises above (ratio ceilings
// such as delta_frac):
//
//	benchjson -min BatchStep:steps/s:1000000 -max DeltaSnapshot:delta_frac:0.1
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Metric aggregates one unit's samples across -count repetitions.
type Metric struct {
	Unit  string    `json:"unit"`
	Mean  float64   `json:"mean"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Count int       `json:"count"`
	Runs  []float64 `json:"runs"`
}

// Benchmark is one benchmark function's aggregated result.
type Benchmark struct {
	Name       string   `json:"name"`
	Procs      int      `json:"procs,omitempty"`
	Iterations []int64  `json:"iterations"`
	Metrics    []Metric `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	out := ""
	baseline := ""
	indent := true
	var gates, mins, maxes []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-out", "--out":
			i++
			if i >= len(args) {
				return fmt.Errorf("-out needs a file argument")
			}
			out = args[i]
		case "-baseline", "--baseline":
			i++
			if i >= len(args) {
				return fmt.Errorf("-baseline needs a file argument")
			}
			baseline = args[i]
		case "-gate", "--gate":
			i++
			if i >= len(args) {
				return fmt.Errorf("-gate needs a <Benchmark>:<unit> argument")
			}
			gates = append(gates, args[i])
		case "-min", "--min":
			i++
			if i >= len(args) {
				return fmt.Errorf("-min needs a <Benchmark>:<unit>:<value> argument")
			}
			mins = append(mins, args[i])
		case "-max", "--max":
			i++
			if i >= len(args) {
				return fmt.Errorf("-max needs a <Benchmark>:<unit>:<value> argument")
			}
			maxes = append(maxes, args[i])
		case "-compact", "--compact":
			indent = false
		default:
			return fmt.Errorf("unknown argument %q (want -out <file>, -baseline <file>, -gate <Name>:<unit>, -min/-max <Name>:<unit>:<value> or -compact)", args[i])
		}
	}
	if len(gates) > 0 && baseline == "" {
		return fmt.Errorf("-gate requires -baseline")
	}
	rep, err := Parse(in)
	if err != nil {
		return err
	}
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := absGate(rep, mins, maxes); err != nil {
		return err
	}
	if baseline == "" {
		return nil
	}
	base, err := loadReport(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return gate(rep, base, gates)
}

// loadReport reads a previously archived Report JSON document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// findMetric locates a benchmark's metric by bare name (no Benchmark prefix,
// no -procs suffix) and unit.
func findMetric(rep *Report, name, unit string) (Metric, bool) {
	for _, b := range rep.Benchmarks {
		if b.Name != name {
			continue
		}
		for _, m := range b.Metrics {
			if m.Unit == unit {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// gate compares each <Name>:<unit> spec between the current and baseline
// reports and fails when the current mean exceeds the baseline mean. Lower is
// better for every gated unit (ns/op, B/op, allocs/op); equal means hold.
func gate(cur, base *Report, specs []string) error {
	var failed []string
	for _, spec := range specs {
		name, unit, ok := strings.Cut(spec, ":")
		if !ok || name == "" || unit == "" {
			return fmt.Errorf("malformed gate %q (want <Benchmark>:<unit>)", spec)
		}
		cm, ok := findMetric(cur, name, unit)
		if !ok {
			return fmt.Errorf("gate %s: benchmark not in current run", spec)
		}
		bm, ok := findMetric(base, name, unit)
		if !ok {
			return fmt.Errorf("gate %s: benchmark not in baseline", spec)
		}
		verdict := "ok"
		if cm.Mean > bm.Mean {
			verdict = "REGRESSION"
			failed = append(failed, spec)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate %-40s baseline %.4g -> current %.4g  %s\n",
			spec, bm.Mean, cm.Mean, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gate(s) regressed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// absGate checks each <Name>:<unit>:<value> spec against an absolute bound:
// -min specs fail when the metric's mean is below value, -max specs when it
// is above. Unlike relative gates these need no baseline, so CI can pin
// hard floors (BatchStep steps/s >= 1e6) and ceilings (delta_frac <= 0.1)
// that hold regardless of runner drift.
func absGate(rep *Report, mins, maxes []string) error {
	var failed []string
	check := func(spec, dir string) error {
		rest, valStr, ok := cutLast(spec)
		if !ok {
			return fmt.Errorf("malformed %s gate %q (want <Benchmark>:<unit>:<value>)", dir, spec)
		}
		name, unit, ok := strings.Cut(rest, ":")
		if !ok || name == "" || unit == "" {
			return fmt.Errorf("malformed %s gate %q (want <Benchmark>:<unit>:<value>)", dir, spec)
		}
		bound, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("%s gate %q: bad bound: %w", dir, spec, err)
		}
		m, ok := findMetric(rep, name, unit)
		if !ok {
			return fmt.Errorf("%s gate %s: benchmark not in current run", dir, spec)
		}
		verdict := "ok"
		if (dir == "min" && m.Mean < bound) || (dir == "max" && m.Mean > bound) {
			verdict = "VIOLATION"
			failed = append(failed, dir+" "+spec)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-4s %-40s bound %.4g, current %.4g  %s\n",
			dir, name+":"+unit, bound, m.Mean, verdict)
		return nil
	}
	for _, spec := range mins {
		if err := check(spec, "min"); err != nil {
			return err
		}
	}
	for _, spec := range maxes {
		if err := check(spec, "max"); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d absolute gate(s) violated: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// cutLast splits around the final colon, so metric units containing colons
// never confuse the bound parse.
func cutLast(s string) (before, after string, ok bool) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

// Parse reads `go test -bench` output and aggregates repeated runs.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	index := map[string]int{} // name -> position in rep.Benchmarks
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Packages = append(rep.Packages, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue // PASS, ok, test chatter
		}
		name, procs, iters, samples, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		pos, ok := index[name]
		if !ok {
			pos = len(rep.Benchmarks)
			index[name] = pos
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Procs: procs})
		}
		b := &rep.Benchmarks[pos]
		b.Iterations = append(b.Iterations, iters)
		for _, s := range samples {
			merge(b, s.unit, s.value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range rep.Benchmarks {
		finalize(&rep.Benchmarks[i])
	}
	return rep, nil
}

// measurement is one (value, unit) pair from a result row, in line order so
// the JSON metric order is deterministic.
type measurement struct {
	unit  string
	value float64
}

// parseBenchLine splits one result row:
//
//	BenchmarkName-8   3   123456 ns/op   120 B/op   3 allocs/op   60.0 trip_s
//
// into the bare name, GOMAXPROCS suffix, iteration count and ordered
// value-per-unit samples.
func parseBenchLine(line string) (name string, procs int, iters int64, samples []measurement, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields)%2 != 0 {
		return "", 0, 0, nil, fmt.Errorf("malformed benchmark line %q", line)
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, perr := strconv.Atoi(name[i+1:]); perr == nil {
			procs = n
			name = name[:i]
		}
	}
	name = strings.TrimPrefix(name, "Benchmark")
	iters, err = strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, verr := strconv.ParseFloat(fields[i], 64)
		if verr != nil {
			return "", 0, 0, nil, fmt.Errorf("metric value %q in %q: %w", fields[i], line, verr)
		}
		samples = append(samples, measurement{unit: fields[i+1], value: v})
	}
	return name, procs, iters, samples, nil
}

func merge(b *Benchmark, unit string, v float64) {
	for i := range b.Metrics {
		if b.Metrics[i].Unit == unit {
			b.Metrics[i].Runs = append(b.Metrics[i].Runs, v)
			return
		}
	}
	b.Metrics = append(b.Metrics, Metric{Unit: unit, Runs: []float64{v}})
}

func finalize(b *Benchmark) {
	for i := range b.Metrics {
		m := &b.Metrics[i]
		m.Count = len(m.Runs)
		m.Min, m.Max = m.Runs[0], m.Runs[0]
		sum := 0.0
		for _, v := range m.Runs {
			sum += v
			if v < m.Min {
				m.Min = v
			}
			if v > m.Max {
				m.Max = v
			}
		}
		m.Mean = sum / float64(m.Count)
	}
}
