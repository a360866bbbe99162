// Command experiments regenerates every table and figure of the paper's
// evaluation and prints the rows EXPERIMENTS.md records.
//
//	experiments                  # run everything
//	experiments -run fig9        # one experiment
//	experiments -run fig10,fig11 # a comma-separated subset
//	experiments -cpuprofile cpu.pprof  # also write a CPU profile
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dcsprint"
)

// campaignOpts carries the -parallel worker bound into the campaign-engine
// fan-outs (Monte Carlo, chaos).
var campaignOpts dcsprint.CampaignOptions

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

var sweepReserves = []time.Duration{
	time.Second, 10 * time.Second, 30 * time.Second, time.Minute,
	90 * time.Second, 3 * time.Minute, 10 * time.Minute,
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		which    = fs.String("run", "all", "comma-separated subset of: fig2,fig4,fig5,fig8,fig9,fig10,fig11,headroom,pue,notes,reserve,skew,capping,adaptive,outage,endurance,chippcm,day,burstiness,montecarlo,plan,chaos,fleet")
		seed     = fs.Int64("seed", 1, "trace generator seed")
		metrics  = fs.String("metrics", "", "write the campaign's Prometheus metrics snapshot (run/tick/trip totals) to this file")
		parallel = fs.Int("parallel", 0, "campaign worker count for the sweep fan-outs (0 = all cores, 1 = serial)")
		cpuprof  = fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the whole run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: close cpu profile:", err)
			}
		}()
	}
	if *parallel > 0 {
		// Bound both the campaign pools that take explicit options and the
		// GOMAXPROCS default the remaining sweeps size themselves by.
		runtime.GOMAXPROCS(*parallel)
		campaignOpts.Workers = *parallel
	}

	all := map[string]func(int64) error{
		"fig2":       fig2,
		"fig4":       fig4,
		"fig5":       fig5,
		"fig8":       fig8,
		"fig9":       fig9,
		"fig10":      fig10,
		"fig11":      fig11,
		"headroom":   headroom,
		"pue":        pue,
		"notes":      noTES,
		"reserve":    reserve,
		"skew":       skew,
		"adaptive":   adaptive,
		"outage":     outage,
		"endurance":  endurance,
		"chippcm":    chippcm,
		"day":        day,
		"burstiness": burstiness,
		"montecarlo": montecarlo,
		"plan":       plan,
		"capping":    capping,
		"chaos":      chaos,
		"fleet":      fleetExp,
	}
	order := []string{"fig2", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11",
		"headroom", "pue", "notes", "reserve", "skew", "capping", "adaptive", "outage", "endurance", "chippcm", "day", "burstiness", "montecarlo", "plan", "chaos", "fleet"}

	selected := order
	if *which != "all" {
		selected = strings.Split(*which, ",")
	}
	for _, name := range selected {
		fn, ok := all[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err := fn(*seed); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	if *metrics != "" {
		// Every sim.Run feeds the process-wide registry; the snapshot is
		// the campaign's aggregate (runs, ticks, trips, deaths).
		f, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		if err := dcsprint.DefaultMetricRegistry().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
	return nil
}

func header(title string) {
	fmt.Println("==", title)
}

func fig2(int64) error {
	header("Fig 2 — circuit breaker trip curve (Bulletin 1489-A calibration)")
	pts := dcsprint.Fig2TripCurve([]float64{5, 10, 20, 30, 40, 60, 100, 200, 300, 400, 500})
	fmt.Printf("%10s  %s\n", "overload", "trip time")
	for _, p := range pts {
		switch {
		case p.Instant:
			fmt.Printf("%9.0f%%  instantaneous (magnetic)\n", p.OverloadPercent)
		case p.TripTime < 0:
			fmt.Printf("%9.0f%%  never\n", p.OverloadPercent)
		default:
			fmt.Printf("%9.0f%%  %v\n", p.OverloadPercent, p.TripTime.Round(time.Second))
		}
	}
	return nil
}

func fig4(seed int64) error {
	header("Fig 4 — three-phase power timeline (MS trace, Greedy, defaults)")
	res, w, err := dcsprint.Fig4(seed)
	if err != nil {
		return err
	}
	fmt.Printf("phase 1 (CB overload)   T1 = %v\n", w.Phase1Start)
	fmt.Printf("phase 2 (UPS discharge) T2 = %v\n", w.Phase2Start)
	fmt.Printf("phase 3 (TES cooling)   T3 = %v\n", w.Phase3Start)
	fmt.Printf("sprint end              T4 = %v\n", w.SprintEnd)
	tele := res.Telemetry
	fmt.Printf("PDU breaker: rated %.2f kW, peak load %.2f kW (%.0f%% overload)\n",
		float64(res.PDURated)/1e3, tele.PDULoad.Max()/1e3,
		100*(tele.PDULoad.Max()/float64(res.PDURated)-1))
	fmt.Printf("DC breaker:  rated %.2f MW, peak load %.2f MW (%.0f%% overload)\n",
		float64(res.DCRated)/1e6, tele.DCLoad.Max()/1e6,
		100*(tele.DCLoad.Max()/float64(res.DCRated)-1))
	fmt.Printf("cooling power: normal %.0f kW, phase-3 minimum %.0f kW\n",
		tele.CoolingPower.Samples[0]/1e3, tele.CoolingPower.Min()/1e3)
	// A coarse minute-by-minute timeline of the two breaker loads.
	fmt.Println("minute  pdu_load/rated  dc_load/rated  phase")
	for m := 0; m < 30; m += 2 {
		i := m * 60
		if i >= tele.PDULoad.Len() {
			break
		}
		fmt.Printf("%6d  %14.2f  %13.2f  %5d\n", m,
			tele.PDULoad.Samples[i]/float64(res.PDURated),
			tele.DCLoad.Samples[i]/float64(res.DCRated),
			tele.Phase[i])
	}
	return nil
}

func fig5(int64) error {
	header("Fig 5 — monthly cost and revenue vs maximum sprinting degree")
	degrees := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4}
	a, b := dcsprint.Fig5(degrees)
	print := func(label string, rows []dcsprint.Fig5Row) {
		fmt.Printf("(%s)\n%5s %10s %10s %10s %10s\n", label, "N", "C($)", "R50($)", "R75($)", "R100($)")
		for _, r := range rows {
			fmt.Printf("%5.1f %10.0f %10.0f %10.0f %10.0f\n", r.MaxDegree, r.Cost, r.R50, r.R75, r.R100)
		}
	}
	print("a: Ut = 4 U0", a)
	print("b: Ut = 6 U0", b)
	return nil
}

func fig8(seed int64) error {
	header("Fig 8 — uncontrolled chip-level sprinting vs Data Center Sprinting (MS trace)")
	d, err := dcsprint.Fig8(seed)
	if err != nil {
		return err
	}
	fmt.Printf("(a) uncontrolled: CB trips at %v; avg burst performance %.2fx (facility down)\n",
		d.UncontrolledTrip.Round(time.Second), d.Uncontrolled.Improvement())
	fmt.Printf("(b) DCS-Greedy:  no trip; avg burst performance %.2fx, sustained %v\n",
		d.Controlled.Improvement(), d.Controlled.SprintSustained)
	fmt.Printf("additional energy split: UPS %.0f%%, TES %.0f%%, CB overload %.0f%% (paper: UPS 54%%, TES 13%%)\n",
		100*d.UPSShare, 100*d.TESShare, 100*d.CBShare)
	fmt.Println("minute  required  unc_achieved  dcs_achieved")
	for m := 0; m < 30; m += 2 {
		i := m * 60
		tele := d.Controlled.Telemetry
		if i >= tele.Required.Len() {
			break
		}
		fmt.Printf("%6d  %8.2f  %12.2f  %12.2f\n", m,
			tele.Required.Samples[i],
			d.Uncontrolled.Telemetry.Achieved.Samples[i],
			tele.Achieved.Samples[i])
	}
	return nil
}

func fig9(seed int64) error {
	header("Fig 9 — strategies vs estimation error (MS trace)")
	rows, err := dcsprint.Fig9(seed, []float64{-100, -80, -60, -40, -20, 0, 20, 40, 60, 80, 100})
	if err != nil {
		return err
	}
	fmt.Printf("%7s %8s %11s %10s %8s\n", "error", "greedy", "prediction", "heuristic", "oracle")
	for _, r := range rows {
		fmt.Printf("%+6.0f%% %8.3f %11.3f %10.3f %8.3f\n",
			r.ErrorPercent, r.Greedy, r.Prediction, r.Heuristic, r.Oracle)
	}
	return nil
}

func fig10(seed int64) error {
	header("Fig 10 — strategies vs burst degree (Yahoo trace, zero estimation error)")
	degrees := []float64{2.6, 2.8, 3.0, 3.2, 3.4, 3.6}
	for _, dur := range []time.Duration{5 * time.Minute, 15 * time.Minute} {
		rows, err := dcsprint.Fig10(seed, dur, degrees)
		if err != nil {
			return err
		}
		fmt.Printf("(%v burst duration)\n%7s %8s %11s %10s %8s\n",
			dur, "degree", "greedy", "prediction", "heuristic", "oracle")
		for _, r := range rows {
			fmt.Printf("%7.1f %8.3f %11.3f %10.3f %8.3f\n",
				r.BurstDegree, r.Greedy, r.Prediction, r.Heuristic, r.Oracle)
		}
	}
	return nil
}

func fig11(seed int64) error {
	header("Fig 11 — hardware testbed emulation")
	d, err := dcsprint.Fig11(seed, sweepReserves)
	if err != nil {
		return err
	}
	fmt.Printf("(a) reserved trip time 10 s: sustained %v; CB overloaded %v total, %v at high power\n",
		d.PowerRun.Sustained, d.PowerRun.OverloadTime, d.PowerRun.OverloadHighPower)
	fmt.Printf("    CB-only baseline trips at %v (paper: 65 s)\n", d.CBOnly)
	fmt.Printf("(b) %12s %10s %10s\n", "reserve", "ours", "cb-first")
	for _, p := range d.Sweep {
		fmt.Printf("    %12v %10v %10v\n", p.Reserve, p.Ours, p.CBFirst)
	}
	return nil
}

func headroom(seed int64) error {
	header("E1 — DC headroom sensitivity (Yahoo 3.2x / 15 min)")
	rows, err := dcsprint.HeadroomSweep(seed, []float64{0, 0.05, 0.10, 0.15, 0.20})
	if err != nil {
		return err
	}
	fmt.Printf("%9s %8s %11s\n", "headroom", "greedy", "prediction")
	for _, r := range rows {
		fmt.Printf("%8.0f%% %8.3f %11.3f\n", 100*r.X, r.Greedy, r.Prediction)
	}
	return nil
}

func pue(seed int64) error {
	header("E2 — PUE sensitivity (Yahoo 3.2x / 15 min)")
	rows, err := dcsprint.PUESweep(seed, []float64{1.2, 1.35, 1.53, 1.7, 2.0})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %8s %11s\n", "PUE", "greedy", "prediction")
	for _, r := range rows {
		fmt.Printf("%6.2f %8.3f %11.3f\n", r.X, r.Greedy, r.Prediction)
	}
	return nil
}

func noTES(seed int64) error {
	header("E3 — no-TES ablation")
	rows, err := dcsprint.NoTESAblation(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %9s %11s\n", "workload", "with TES", "without TES")
	for _, r := range rows {
		fmt.Printf("%-18s %9.3f %11.3f\n", r.Name, r.With, r.Without)
	}
	return nil
}

func reserve(seed int64) error {
	header("E4 — breaker reserve-time ablation (MS trace, Greedy)")
	rows, err := dcsprint.ReserveSweep(seed, []time.Duration{
		10 * time.Second, 30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute})
	if err != nil {
		return err
	}
	fmt.Printf("%9s %12s %8s\n", "reserve", "improvement", "tripped")
	for _, r := range rows {
		fmt.Printf("%9v %12.3f %8v\n", r.Reserve, r.Improvement, r.Tripped)
	}
	return nil
}

func skew(seed int64) error {
	header("E5 — heterogeneous per-PDU demand (Yahoo 3.2x / 15 min)")
	rows, err := dcsprint.SkewExperiment(seed, []float64{0, 0.2, 0.4, 0.6, 0.8})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %8s\n", "skew", "improvement", "tripped")
	for _, r := range rows {
		fmt.Printf("%6.1f %12.3f %8v\n", r.Skew, r.Improvement, r.Tripped)
	}
	return nil
}

func capping(seed int64) error {
	header("E6 — sprinting vs DVFS power capping (burst + supply emergency)")
	rows, err := dcsprint.EmergencyComparison(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %18s %20s %8s\n", "system", "burst performance", "dip min performance", "tripped")
	for _, r := range rows {
		fmt.Printf("%-13s %17.3fx %19.3fx %8v\n", r.System, r.BurstPerformance, r.DipMinPerformance, r.Tripped)
	}
	return nil
}

func adaptive(seed int64) error {
	header("E7 — online burst prediction (Adaptive) vs offline forecasts (Yahoo 3.2x)")
	rows, err := dcsprint.AdaptiveComparison(seed, []time.Duration{
		5 * time.Minute, 10 * time.Minute, 15 * time.Minute, 20 * time.Minute})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %9s %11s %8s\n", "duration", "greedy", "adaptive", "prediction", "oracle")
	for _, r := range rows {
		fmt.Printf("%10v %8.3f %9.3f %11.3f %8.3f\n",
			r.Duration, r.Greedy, r.Adaptive, r.Prediction, r.Oracle)
	}
	return nil
}

func outage(seed int64) error {
	header("E8 — deep utility outage: generator bridge vs stores alone")
	rows, err := dcsprint.OutageExperiment(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %20s %14s %9s\n", "system", "min performance", "gen energy", "survived")
	for _, r := range rows {
		fmt.Printf("%-12s %19.3fx %13.1fMJ %9v\n",
			r.System, r.MinPerformance, float64(r.GenEnergy)/1e6, r.Survived)
	}
	return nil
}

func endurance(seed int64) error {
	header("E9 — battery lifetime impact of sprinting (per-burst DoD projected monthly)")
	rows, err := dcsprint.EnduranceReport(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-5s %14s %8s %18s %16s\n", "chem", "bursts/month", "DoD", "lifetime neutral", "projected years")
	for _, r := range rows {
		years := fmt.Sprintf("%.0f", r.ProjectedYears)
		if r.ProjectedYears > 1000 {
			years = ">1000"
		}
		fmt.Printf("%-5s %14d %7.0f%% %18v %16s\n",
			r.Chemistry, r.BurstsPerMonth, 100*r.DepthOfDischarge, r.LifetimeNeutral, years)
	}
	return nil
}

func chippcm(seed int64) error {
	header("E10 — chip-level PCM ablation (§IV prerequisite bounds the DC sprint)")
	rows, err := dcsprint.ChipPCMSweep(seed, []float64{2, 5, 10, 30, 0})
	if err != nil {
		return err
	}
	fmt.Printf("%12s %12s %12s\n", "PCM budget", "improvement", "sustained")
	for _, r := range rows {
		label := fmt.Sprintf("%.0f min", r.PCMMinutes)
		if r.PCMMinutes == 0 {
			label = "unlimited"
		}
		fmt.Printf("%12s %12.3f %12v\n", label, r.Improvement, r.SprintSustained)
	}
	return nil
}

func day(seed int64) error {
	header("E11 — a full Fig-1 day end to end (sprints, recharge, battery wear)")
	rep, err := dcsprint.DayExperiment(seed)
	if err != nil {
		return err
	}
	fmt.Printf("burst events:        %d\n", rep.BurstEvents)
	fmt.Printf("avg burst perf:      %.3fx\n", rep.Improvement)
	fmt.Printf("trips / overheats:   %v / %v\n", rep.Tripped, rep.Overheated)
	fmt.Printf("UPS SoC: min %.0f%%, end of day %.0f%%\n", 100*rep.MinUPSSoC, 100*rep.EndUPSSoC)
	fmt.Printf("LFP wear for a month of such days: %.2f%% of life (neutral: %v)\n",
		100*rep.MonthlyDamage, rep.LifetimeNeutral)
	return nil
}

func burstiness(seed int64) error {
	header("E12 — self-similar traffic burstiness sweep (b-model)")
	rows, err := dcsprint.BurstinessSweep(seed, []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %10s %12s %8s\n", "bias", "p99/mean", "episodes", "improvement", "tripped")
	for _, r := range rows {
		fmt.Printf("%6.2f %12.2f %10d %12.3f %8v\n", r.Bias, r.Burstiness, r.Episodes, r.Improvement, r.Tripped)
	}
	return nil
}

func montecarlo(int64) error {
	header("E13 — Monte-Carlo robustness (Yahoo 3.2x / 15 min across 32 seeds)")
	st, err := dcsprint.MonteCarlo(context.Background(), campaignOpts, 32)
	if err != nil {
		return err
	}
	fmt.Printf("improvement: mean %.3f, min %.3f, max %.3f, stddev %.3f; trips %d/%d\n",
		st.Mean, st.Min, st.Max, st.StdDev, st.Trips, st.Seeds)
	return nil
}

func plan(seed int64) error {
	header("E14 — provisioning planner: smallest stores that fully serve a burst")
	fmt.Printf("%8s %10s %12s %10s %12s\n", "burst", "duration", "battery Ah", "TES min", "served")
	type target struct {
		degree   float64
		duration time.Duration
	}
	for _, tg := range []target{
		{1.8, 5 * time.Minute}, {2.0, 5 * time.Minute},
		{2.0, 10 * time.Minute}, {2.2, 15 * time.Minute},
		{2.6, 15 * time.Minute},
	} {
		p, err := dcsprint.PlanStores(seed, tg.degree, tg.duration)
		if err != nil {
			fmt.Printf("%7.1fx %10v %35s\n", tg.degree, tg.duration, "unreachable (cooling/power ceiling)")
			continue
		}
		fmt.Printf("%7.1fx %10v %12.2f %10.0f %11.3fx\n",
			tg.degree, tg.duration, p.BatteryAh, p.TESMinutes, p.Improvement)
	}
	return nil
}

func chaos(seed int64) error {
	header("E15 — chaos: 50 random fault campaigns per strategy (Yahoo 2.5x / 12 min)")
	rows, err := dcsprint.Chaos(context.Background(), campaignOpts, seed, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %10s %6s %10s %7s %7s %14s %15s %15s %11s\n",
		"strategy", "campaigns", "trips", "overheats", "aborts", "deaths",
		"healthy excess", "mean degr. exc.", "worst degr. exc.", "trip margin")
	for _, r := range rows {
		fmt.Printf("%12s %10d %6d %10d %7d %7d %14.1f %15.1f %16.1f %11.1e\n",
			r.Strategy, r.Campaigns, r.Trips, r.Overheats, r.Aborts, r.Deaths,
			r.HealthyExcess, r.MeanDegradedExcess, r.WorstDegradedExcess, r.MinTripMargin)
	}
	return nil
}

func fleetExp(int64) error {
	header("E16 — fleet coordination: routed vs independent sprinting (8 DCs, hot DC 0, 6 seeds)")
	cmp, err := dcsprint.Fleet(context.Background(), campaignOpts, 6)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %8s %9s %9s %8s %13s %13s %8s\n",
		"policy", "bursts", "survived", "rejected", "spilled", "worst stress", "min margin C", "served")
	for _, row := range []struct {
		name string
		m    dcsprint.FleetModeResult
	}{
		{"coordinated", cmp.Coordinated},
		{"independent", cmp.Independent},
	} {
		fmt.Printf("%12s %8d %9d %9d %8d %13.4f %13.3f %8.3f\n",
			row.name, row.m.Bursts, row.m.Survived, row.m.Rejected, row.m.Spilled,
			row.m.WorstBreakerStress, row.m.WorstThermalMarginC, row.m.MeanServedRatio)
	}
	fmt.Printf("dominates: %v\n", cmp.Dominates)
	return nil
}
