// Autoscaling: the elastic loop closed over the observability spine.
// The same overloaded trace — VMs demanding ~95% of their credit,
// serving full-cost requests with no capacity headroom — runs three
// ways under PAS: static caps (the contracted credits, untouched),
// the queue policy (scale on serving queue depth alone), and the ditto
// policy (scale on the flight recorder's throttle-attribution ledger:
// grow only the VMs whose queues are *caused* by their own cap). The
// autoscaler may also spawn serving replicas once a VM's cap ceiling is
// reached, splitting the arrival stream across the group.
//
// The point of the comparison: static caps let throttled VMs queue
// without recourse; the elastic policies buy their tail latency back
// with modest extra energy, and ditto does it with fewer wasted
// actions because its trigger is the attributed cause, not the
// symptom.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"

	"pasched/internal/autoscale"
	"pasched/internal/fleet"
	"pasched/internal/metrics"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

const (
	machines = 6
	arrivals = 120
	horizon  = 240 * sim.Second
	seed     = 31
)

func main() {
	trace, err := fleet.Generate(fleet.GenConfig{
		Seed:             seed,
		Arrivals:         arrivals,
		Horizon:          horizon,
		MeanLifetime:     120 * sim.Second,
		BaseActivity:     0.95,
		DiurnalAmplitude: 0.2,
		SegmentLen:       60 * sim.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Trace: %d VM lifecycles over %v on %d machines, ~95%% activity, full-cost requests — throttling turns into queueing.\n\n",
		len(trace.Events), horizon, machines)

	run := func(policy string) *fleet.Report {
		cfg := fleet.Config{
			Machines:    fleet.DefaultEstate(machines),
			Scheduler:   "pas",
			Policy:      fleet.NewBestFit(),
			ReportEvery: 2 * sim.Second,
			Seed:        seed,
			// Full-cost requests: service capacity equals attained CPU,
			// so a capped VM visibly queues. The default page cost gives
			// five-fold headroom, which would hide the throttling.
			Serving: fleet.ServingConfig{
				Enabled:     true,
				RequestCost: workload.DefaultRequestCost,
			},
			// The recorder feeds ditto's attribution trigger; on for all
			// three runs so the ledger columns stay comparable.
			Obs: fleet.ObsConfig{Enabled: true},
		}
		if policy != "" {
			cfg.Autoscale = fleet.AutoscaleConfig{
				Enabled: true,
				Policy:  policy,
				Params: autoscale.Params{
					MaxCapPct:   60,
					MaxReplicas: 2,
					QueueHigh:   4,
					// A tenth of the interval spent cap-throttled (with
					// work queued) triggers growth; the default quarter
					// is tuned for coarser reporting intervals than the
					// 2 s used here.
					CappedHighPermille: 100,
				},
			}
		}
		fl, err := fleet.New(cfg, trace)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := fl.Run(horizon)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	variants := []struct{ label, policy string }{
		{"static", ""},
		{"queue", "queue"},
		{"ditto", "ditto"},
	}
	reports := make(map[string]*fleet.Report, len(variants))
	tb := metrics.NewTable("Static caps vs the elastic loop (PAS, equal offered load):",
		"variant", "p50 (ms)", "p99 (ms)", "mean (ms)", "capped (s)", "energy (kJ)", "SLA",
		"resizes", "out/in", "rejected")
	for _, v := range variants {
		rep := run(v.policy)
		reports[v.label] = rep
		s := rep.Summary
		tb.AddRow(v.label,
			fmt.Sprintf("%.2f", s.ReqP50Ms),
			fmt.Sprintf("%.2f", s.ReqP99Ms),
			fmt.Sprintf("%.2f", s.ReqMeanMs),
			fmt.Sprintf("%.1f", float64(s.LedgerCappedUs)/1e6),
			fmt.Sprintf("%.1f", s.TotalJoules/1000),
			fmt.Sprintf("%.4f", s.OverallSLA),
			fmt.Sprintf("%d", s.AutoscaleResizes),
			fmt.Sprintf("%d/%d", s.AutoscaleScaleOuts, s.AutoscaleScaleIns),
			fmt.Sprintf("%d", s.AutoscaleRejected))
	}
	fmt.Println(tb.Render())

	st, qu, di := reports["static"].Summary, reports["queue"].Summary, reports["ditto"].Summary
	fmt.Printf("Ditto vs static caps: p99 %.2f -> %.2f ms (%.1fx) and capped time %.1f -> %.1f s for %.1f%% more energy.\n",
		st.ReqP99Ms, di.ReqP99Ms, st.ReqP99Ms/di.ReqP99Ms,
		float64(st.LedgerCappedUs)/1e6, float64(di.LedgerCappedUs)/1e6,
		(di.TotalJoules/st.TotalJoules-1)*100)
	fmt.Printf("Ditto vs queue: same loop, attributed trigger — %d actions against %d for p99 %.2f vs %.2f ms.\n\n",
		di.AutoscaleResizes+di.AutoscaleScaleOuts+di.AutoscaleScaleIns,
		qu.AutoscaleResizes+qu.AutoscaleScaleOuts+qu.AutoscaleScaleIns,
		di.ReqP99Ms, qu.ReqP99Ms)

	if err := writeFile("AUTOSCALING_intervals.csv", reports["ditto"].WriteCSV); err != nil {
		log.Fatal(err)
	}
	summaries := make(map[string]fleet.Summary, len(reports))
	for name, rep := range reports {
		summaries[name] = rep.Summary
	}
	if err := writeJSON("AUTOSCALING_summary.json", summaries); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Wrote AUTOSCALING_intervals.csv (ditto curves) and AUTOSCALING_summary.json.")
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeJSON(path string, summaries map[string]fleet.Summary) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summaries)
	})
}
