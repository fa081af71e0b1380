package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mcsafe"
	"mcsafe/internal/obs"
	"mcsafe/internal/vstore"
)

// runCfg is one invocation of the benchmark.
type runCfg struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	Root     string // the checkout (testdata is read from here)
	Scratch  string // stores and other run files; removed afterwards
	Conns    int    // client connections where a workload uses several: min(2, nproc)
}

const (
	// paperSetups and serviceSetups are how often a run sets up; setup_s
	// is the median.
	paperSetups   = 25
	serviceSetups = 3
	// minPasses keeps at least 78 paper13 ops in a window, so its p85
	// has 11 samples beyond it. A pass takes about 3.5 s on a 2-vCPU VM.
	minPasses = 6
	// paperTailP is paper13's tail percentile. Thirteen distinct programs
	// give a pooled distribution of thirteen clusters; p85 falls on the
	// fastest of Stack-smashing's checks, above every smaller program's.
	paperTailP = 85
	// churnBlocks sizes service-churn's stream: 10 requests per block,
	// 1.3–1.7 times what a 20 s window completes on a 2-vCPU VM, so the
	// window ends a run unless the program gets much faster, when the
	// stream does. Each block costs set-up one pre-restart record.
	churnBlocks = 700
	// hotOpsPerSecond sizes service-hot's stream: about three times the
	// request rate on a 2-vCPU VM.
	hotOpsPerSecond = 6000
	// replayFixtures is how many pre-restart and fresh fixtures of
	// service-churn the traced run replays, besides the programs.
	replayFixtures = 12
)

// paperEnv is paper13's set-up: the programs assembled and their specs
// parsed, ready for Checker.Check.
type paperEnv struct {
	items []item
	progs []*mcsafe.Program
	specs []*mcsafe.Spec
}

func paperSetup(items []item) (*paperEnv, error) {
	env := &paperEnv{items: items}
	for i := range items {
		spec, err := mcsafe.ParseSpec(items[i].Spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", items[i].Name, err)
		}
		prog, err := mcsafe.Assemble(items[i].Asm, spec, items[i].Entry)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", items[i].Name, err)
		}
		env.progs = append(env.progs, prog)
		env.specs = append(env.specs, spec)
	}
	return env, nil
}

// paperWindow checks the programs in a closed loop with one caller, in
// whole passes, until the window has passed and at least minPasses are
// done. There is no warm-up pass: the first pass runs 5–10% slower
// in a fresh process, which throughput includes and the per-program
// medians of check_ms_geomean leave out. tr, when set, observes the
// checks (traced run).
func paperWindow(env *paperEnv, dur time.Duration, tr *obs.Trace) (*window, map[string][]byte) {
	checker := mcsafe.New(mcsafe.WithObserver(tr))
	ctx := context.Background()
	w := &window{PerProgram: map[string][]float64{}}
	wires := map[string][]byte{}
	rt := beginWindowRT()
	t0 := time.Now()
	for pass := 0; pass < minPasses || time.Since(t0) < dur; pass++ {
		for i := range env.items {
			it := &env.items[i]
			t := time.Now()
			res, err := checker.Check(ctx, env.progs[i], env.specs[i])
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			w.Lat = append(w.Lat, ms)
			w.PerProgram[it.Name] = append(w.PerProgram[it.Name], ms)
			if err == nil {
				err = checkTruth(it, res.Safe, violationCodes(res.Violations))
			}
			if err == nil {
				wires[it.Name], err = res.MarshalWire()
			}
			if err != nil {
				w.fail(err)
			}
		}
	}
	w.Elapsed = time.Since(t0)
	w.RT = rt.end()
	return w, wires
}

// geomeanOfMedians is check_ms_geomean: the geometric mean over the 13
// programs of each program's median time.
func geomeanOfMedians(samples map[string][]float64) float64 {
	var meds []float64
	for _, n := range paperNames {
		meds = append(meds, median(samples[n]))
	}
	return geomean(meds)
}

// logPrograms prints each program's time samples behind check_ms_geomean.
func logPrograms(rep *report, label string, samples map[string][]float64) {
	for _, n := range paperNames {
		rep.logf("  %s %-14s median %9.3f ms of %.3f", label, n, median(samples[n]), samples[n])
	}
}

func runPaper13(c runCfg) (*report, error) {
	rep := &report{Values: map[string]float64{}}
	items := paperItems()
	var setups []float64
	var env *paperEnv
	for i := 0; i < paperSetups; i++ {
		t0 := time.Now()
		e, err := paperSetup(items)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	rep.logf("setup_s samples: %v", setups)
	w, wires := paperWindow(env, c.Window, nil)
	logPrograms(rep, "check", w.PerProgram)
	e2e, err := reportWindow(rep, "untraced", w, paperTailP, geomeanOfMedians(w.PerProgram), median(setups))
	if err != nil {
		return nil, err
	}
	if !c.Trace {
		rep.Values = e2e
		return rep, nil
	}

	tr := obs.New()
	tr.SetSpanLimit(4096)
	tw, twires := paperWindow(env, c.Window, tr)
	te2e, err := reportWindow(rep, "traced", tw, paperTailP, geomeanOfMedians(tw.PerProgram), median(setups))
	if err != nil {
		return nil, err
	}
	logOverhead(rep, e2e, te2e)
	rep.Values["client.latency_p50_ms"] = e2e["client.latency_p50_ms"]
	for n, wire := range twires {
		wires[n] = wire
	}

	// The server layer does nothing in paper13's window; an HTTP pass
	// over the same programs (plus the RV32I sample) measures it: each
	// once cold, then twenty rounds of hits on one connection.
	rv, err := rv32iItem(c.Root)
	if err != nil {
		return nil, err
	}
	pass := append(append([]item(nil), items...), rv)
	svc, err := startService(filepath.Join(c.Scratch, "paper13-http"), true)
	if err != nil {
		return nil, err
	}
	cl := newClient(c.Conns)
	cold, err := submitCold(cl, svc.url, pass, c.Conns)
	cl.close()
	if err != nil {
		svc.stop()
		return nil, err
	}
	steps := cycleSteps(pass, c.Seed, 20*len(pass))
	cl = newClient(1)
	ops, _ := runStream(cl, svc.url, steps, 1, time.Hour, cold)
	cl.close()
	ctr := svc.trace.Counters()
	st := svc.store.Stats()
	timing := svc.timing.take()
	if err := svc.stop(); err != nil {
		return nil, err
	}
	var fidelity []error
	vals := rep.Values
	if err := serverLayer(rep, timing, ops, coldList(cold), ctr, vstore.Stats{}, st, len(ops)+len(cold)); err != nil {
		fidelity = append(fidelity, err)
	}
	workCounters(vals, tr.Counters(), len(tw.Lat))
	runtimeLayer(vals, tw)

	var refs []replayRef
	for i := range pass {
		ref := cold[pass[i].Name].verdict
		if wire, ok := wires[pass[i].Name]; ok {
			// The verdict Checker.Check gave in the window.
			ref.Wire = wire
		}
		refs = append(refs, replayRef{it: &pass[i], ref: ref})
	}
	if err := replayLayer(rep, refs, 0, filepath.Join(c.Scratch, "paper13-replay")); err != nil {
		fidelity = append(fidelity, err)
	}
	passFailed := 0
	for _, o := range ops {
		if o.Err != nil {
			passFailed++
			rep.logf("  failed op: %v", o.Err)
		}
	}
	return finishTraced(rep, len(ops)+len(cold), passFailed, fidelity), nil
}

// cycleSteps is a stream of n hits over items in whole seeded cycles.
func cycleSteps(items []item, seed int64, n int) []step {
	order := hotStream(len(items), seed, n)
	steps := make([]step, len(order))
	for k, i := range order {
		steps[k] = step{Item: &items[i], Cached: true}
	}
	return steps
}

func coldList(cold map[string]coldResult) []coldResult {
	out := make([]coldResult, 0, len(cold))
	for _, r := range cold {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// serviceSpec describes a service workload.
type serviceSpec struct {
	name    string
	warm    []item // committed through the server while setting up
	restart bool   // close and reopen the store after warming
	stream  []step
	conns   int
	// replaySet picks the traced run's distinct requests.
	replaySet func(cold map[string]coldResult, ops []op) []replayRef
}

func runHot(c runCfg) (*report, error) {
	rv, err := rv32iItem(c.Root)
	if err != nil {
		return nil, err
	}
	set := hotWorkingSet(rv)
	return runService(c, serviceSpec{
		name:   "service-hot",
		warm:   set,
		stream: cycleSteps(set, c.Seed, int(c.Window.Seconds()*hotOpsPerSecond)),
		conns:  1,
		replaySet: func(cold map[string]coldResult, _ []op) []replayRef {
			refs := make([]replayRef, len(set))
			for i := range set {
				refs[i] = replayRef{it: &set[i], ref: cold[set[i].Name].verdict}
			}
			return refs
		},
	})
}

func runChurn(c runCfg) (*report, error) {
	rv, err := rv32iItem(c.Root)
	if err != nil {
		return nil, err
	}
	plan := newChurnPlan(c.Seed, churnBlocks, rv)
	return runService(c, serviceSpec{
		name:    "service-churn",
		warm:    plan.Pre,
		restart: true,
		stream:  plan.Stream,
		conns:   c.Conns,
		replaySet: func(cold map[string]coldResult, ops []op) []replayRef {
			var refs []replayRef
			// The programs and RV32I sample lead Pre; then fixtures.
			for i := range plan.Pre[:len(paperNames)+1+replayFixtures] {
				refs = append(refs, replayRef{it: &plan.Pre[i], ref: cold[plan.Pre[i].Name].verdict})
			}
			fresh := 0
			for _, o := range ops {
				if o.Cold != nil && fresh < replayFixtures {
					refs = append(refs, replayRef{it: plan.Stream[o.Seq].Item, ref: o.Cold.verdict})
					fresh++
				}
			}
			return refs
		},
	})
}

// serviceSetup is one set-up of a service workload: serve a fresh store,
// commit the warm set through the server, and for a restart close the
// store and serve it again, so its recovery scan is part of set-up.
func serviceSetup(dir string, s *serviceSpec, timed bool, conns int) (*service, map[string]coldResult, error) {
	svc, err := startService(dir, timed)
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(conns)
	cold, err := submitCold(cl, svc.url, s.warm, conns)
	cl.close()
	if err != nil {
		svc.stop()
		return nil, nil, err
	}
	if !s.restart {
		return svc, cold, nil
	}
	var prior map[int]int64
	if timed {
		prior = svc.timing.take()
	}
	if err := svc.stop(); err != nil {
		return nil, nil, err
	}
	if svc, err = startService(dir, timed); err != nil {
		return nil, nil, err
	}
	if timed {
		svc.timing.ns = prior
	}
	return svc, cold, nil
}

// serviceWindow is one measured window against a set-up service, with
// the server's counters and store statistics around it.
type serviceWindow struct {
	*window
	ops          []op
	ctr0, ctr1   map[string]int64
	stat0, stat1 vstore.Stats
	timing       map[int]int64
}

func measureService(svc *service, s *serviceSpec, dur time.Duration, cold map[string]coldResult) *serviceWindow {
	cl := newClient(s.conns)
	defer cl.close()
	sw := &serviceWindow{window: &window{}, ctr0: svc.trace.Counters(), stat0: svc.store.Stats()}
	rt := beginWindowRT()
	sw.ops, sw.Elapsed = runStream(cl, svc.url, s.stream, s.conns, dur, cold)
	sw.RT = rt.end()
	sw.ctr1, sw.stat1 = svc.trace.Counters(), svc.store.Stats()
	for _, o := range sw.ops {
		sw.Lat = append(sw.Lat, o.MS)
		if o.Err != nil {
			sw.fail(o.Err)
		}
	}
	if svc.timing != nil {
		sw.timing = svc.timing.take()
	}
	return sw
}

func runService(c runCfg, s serviceSpec) (*report, error) {
	rep := &report{Values: map[string]float64{}}
	untracedRep, tracedRep := serviceSetups-1, -1
	if c.Trace {
		untracedRep, tracedRep = serviceSetups-2, serviceSetups-1
	}
	var (
		setups        []float64
		coldMS        = map[string][]float64{}
		untraced, trc *serviceWindow
		tracedCold    map[string]coldResult
	)
	for r := 0; r < serviceSetups; r++ {
		t0 := time.Now()
		svc, cold, err := serviceSetup(filepath.Join(c.Scratch, fmt.Sprintf("%s-%d", s.name, r)), &s, r == tracedRep, c.Conns)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, it := range s.warm {
			if it.Paper {
				coldMS[it.Name] = append(coldMS[it.Name], cold[it.Name].MS)
			}
		}
		switch r {
		case untracedRep:
			untraced = measureService(svc, &s, c.Window, cold)
		case tracedRep:
			trc, tracedCold = measureService(svc, &s, c.Window, cold), cold
		}
		if err := svc.stop(); err != nil {
			return nil, err
		}
	}
	rep.logf("setup_s samples: %v", setups)
	logPrograms(rep, "cold", coldMS)
	geo, setup := geomeanOfMedians(coldMS), median(setups)
	e2e, err := reportWindow(rep, "untraced", untraced.window, 99, geo, setup)
	if err != nil {
		return nil, err
	}
	if !c.Trace {
		rep.Values = e2e
		return rep, nil
	}
	te2e, err := reportWindow(rep, "traced", trc.window, 99, geo, setup)
	if err != nil {
		return nil, err
	}
	logOverhead(rep, e2e, te2e)

	vals := rep.Values
	vals["client.latency_p50_ms"] = e2e["client.latency_p50_ms"]
	var fidelity []error
	ctr := counterDelta(trc.ctr0, trc.ctr1)
	if err := serverLayer(rep, trc.timing, trc.ops, coldList(tracedCold), ctr, trc.stat0, trc.stat1, len(trc.ops)); err != nil {
		fidelity = append(fidelity, err)
	}
	workCounters(vals, ctr, len(trc.ops))
	runtimeLayer(vals, trc.window)
	if err := replayLayer(rep, s.replaySet(tracedCold, trc.ops), 1, filepath.Join(c.Scratch, s.name+"-replay")); err != nil {
		fidelity = append(fidelity, err)
	}
	return finishTraced(rep, 0, 0, fidelity), nil
}

// reportWindow computes a window's end-to-end metrics and logs them with
// their sample counts.
func reportWindow(rep *report, label string, w *window, tailP, geo, setup float64) (map[string]float64, error) {
	e2e, pcts, err := w.endToEnd(tailP, geo, setup)
	if err != nil {
		return nil, fmt.Errorf("%s window: %w", label, err)
	}
	rep.logf("%s window: %d ops in %.3fs, %d failed; latency %s, %s", label, len(w.Lat), w.Elapsed.Seconds(), w.Failed, pcts[0], pcts[1])
	for _, e := range w.Errs {
		rep.logf("  failed op: %v", e)
	}
	for _, m := range endToEnd {
		rep.logf("  %-18s %14.4f %s", m.Name, e2e[m.Name], m.Unit)
	}
	rep.Attempted += len(w.Lat)
	rep.Failed += w.Failed
	return e2e, nil
}

// logOverhead prints traced minus untraced for every end-to-end metric.
func logOverhead(rep *report, untraced, traced map[string]float64) {
	rep.logf("tracing overhead (traced - untraced):")
	for _, m := range endToEnd {
		d := traced[m.Name] - untraced[m.Name]
		rep.logf("  %-18s %+12.4f %s (%+.1f%%)", m.Name, d, m.Unit, 100*d/untraced[m.Name])
	}
}

// finishTraced settles a traced run's verdict: every op correct, the
// windows' and extraOps of its own, and every fidelity check passed.
func finishTraced(rep *report, extraOps, extraFailed int, fidelity []error) *report {
	rep.Attempted += extraOps
	rep.Failed += extraFailed
	if err := errors.Join(fidelity...); err != nil {
		rep.logf("FIDELITY CHECK FAILED: %v", err)
	} else {
		rep.logf("fidelity checks passed: replayed content addresses, re-enacted verdicts and wire bytes, store counters")
	}
	rep.Correct = rep.Failed == 0 && len(fidelity) == 0
	return rep
}
