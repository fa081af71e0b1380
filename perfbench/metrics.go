package main

import (
	"fmt"
	"time"

	"mcsafe/internal/progs"
)

// metricSpec names one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced runs' metrics, reported by every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"latency_tail_ms", "ms", "lower"},
	{"check_ms_geomean", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// paperNames are the Figure 9 programs in the paper's column order.
var paperNames = func() []string {
	var names []string
	for _, b := range progs.All() {
		names = append(names, b.Name)
	}
	return names
}()

// obsCounters maps the program's obs counters to per-layer names; the
// traced run reports each per op.
var obsCounters = []struct{ Counter, Name, Better string }{
	{"solver_valid_queries", "solver.valid_queries", "lower"},
	{"solver_cache_hits", "solver.cache_hits", "higher"},
	{"solver_eliminations", "solver.eliminations", "lower"},
	{"solver_dnf_blowups", "solver.dnf_blowups", "lower"},
	{"early_unsat_prunes", "solver.early_unsat_prunes", "higher"},
	{"fm_prefix_reuses", "solver.fm_prefix_reuses", "higher"},
	{"induction_runs", "induction.runs", "lower"},
	{"induction_iterations", "induction.iterations", "lower"},
	{"induction_candidates", "induction.candidates", "lower"},
	{"vcgen_conditions", "vcgen.conditions", "lower"},
	{"vcgen_proved", "vcgen.proved", "higher"},
	{"vcgen_query_cache_hits", "vcgen.query_cache_hits", "higher"},
	{"propagate_steps", "propagate.steps", "lower"},
	{"typestate_facts", "typestate.facts", "lower"},
	{"interned_terms", "expr.interned_terms", "lower"},
	{"intern_hits", "expr.intern_hits", "higher"},
	{"rtl_effects", "rtl.effects", "lower"},
	{"annotate_local_checks", "annotate.local_checks", "lower"},
	{"annotate_global_conds", "annotate.global_conds", "lower"},
	{"server_checks", "server.checks", "lower"},
	{"server_store_hits", "server.store_hits", "higher"},
	{"server_store_misses", "server.store_misses", "lower"},
	{"server_admission_timeouts", "server.admission_timeouts", "lower"},
}

// phaseSpans are internal/core's phases as the replay times them.
var phaseSpans = []struct{ Span, Time, Alloc string }{
	{"cfg.prepare", "cfg.prepare_ms", "cfg.alloc_mb"},
	{"propagate.typestate", "propagate.typestate_ms", "propagate.alloc_mb"},
	{"annotate.annot_local", "annotate.annot_local_ms", "annotate.alloc_mb"},
	{"vcgen.global", "vcgen.global_ms", "vcgen.alloc_mb"},
}

// callSpans are the cheap calls the replay times, reported as medians.
var callSpans = []struct{ Span, Name string }{
	{"server.decode", "server.decode_us"},
	{"policy.parse", "policy.parse_us"},
	{"sparc.assemble", "sparc.assemble_us"},
	{"riscv.assemble", "riscv.assemble_us"},
	{"mcsafe.fingerprint", "mcsafe.fingerprint_us"},
	{"mcsafe.spec_hash", "mcsafe.spec_hash_us"},
	{"wire.marshal", "wire.marshal_us"},
	{"vstore.get_mem", "vstore.get_mem_us"},
	{"vstore.get_disk", "vstore.get_disk_us"},
	{"vstore.put", "vstore.put_us"},
}

// perLayer lists the traced run's metrics in report order.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"client.latency_p50_ms", "ms", "lower"},
		{"server.handler_us_p50", "us", "lower"},
		{"server.transport_us_p50", "us", "lower"},
		{"server.hit_us_p50", "us", "lower"},
		{"server.cold_ms_mean", "ms", "lower"},
		{"server.cold_overhead_ms", "ms", "lower"},
		{"server.hit_ratio", "ratio", "higher"},
	}
	for _, c := range callSpans {
		out = append(out, metricSpec{c.Name, "us", "lower"})
	}
	out = append(out,
		metricSpec{"vstore.mem_hits", "count", "higher"},
		metricSpec{"vstore.disk_hits", "count", "higher"},
		metricSpec{"vstore.misses", "count", "lower"},
		metricSpec{"vstore.puts", "count", "lower"},
		metricSpec{"vstore.put_errors", "count", "lower"},
		metricSpec{"wire.bytes_per_verdict", "B", "lower"},
	)
	for _, p := range phaseSpans {
		out = append(out, metricSpec{p.Time, "ms", "lower"}, metricSpec{p.Alloc, "MiB", "lower"})
	}
	for _, n := range paperNames {
		out = append(out, metricSpec{"core.check_ms." + n, "ms", "lower"})
	}
	for _, c := range obsCounters {
		out = append(out, metricSpec{c.Name, "count", c.Better})
	}
	return append(out,
		metricSpec{"solver.cache_hit_ratio", "ratio", "higher"},
		metricSpec{"runtime.gc_cycles_per_op", "count", "lower"},
		metricSpec{"runtime.gc_cpu_fraction", "ratio", "lower"},
	)
}

// report is one run's outcome.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Values    map[string]float64
	// Lines are the human-readable account printed to standard error.
	Lines []string
}

func (r *report) logf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// window is one measured window: every completed op's wall time, the
// failures, and what the runtime did meanwhile.
type window struct {
	Lat []float64 // ms
	// PerProgram holds paper13's op times by program (nil on the
	// services).
	PerProgram map[string][]float64
	Failed     int
	Errs       []error
	Elapsed    time.Duration
	RT         rtDelta
}

func (w *window) fail(err error) {
	w.Failed++
	if len(w.Errs) < 5 {
		w.Errs = append(w.Errs, err)
	}
}

// endToEnd computes the window's end-to-end metrics and its median op
// latency. tailP is the workload's tail percentile; geo and setup come
// from the caller.
func (w *window) endToEnd(tailP, geo, setup float64) (map[string]float64, []pct, error) {
	p50, err := guardedPercentile(w.Lat, 50)
	if err != nil {
		return nil, nil, fmt.Errorf("latency p50: %w", err)
	}
	tail, err := guardedPercentile(w.Lat, tailP)
	if err != nil {
		return nil, nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	n := float64(len(w.Lat))
	return map[string]float64{
		"setup_s":          setup,
		"throughput_ops":   (n - float64(w.Failed)) / w.Elapsed.Seconds(),
		"latency_tail_ms":  tail.Value,
		"check_ms_geomean": geo,
		"alloc_kb_per_op":  w.RT.AllocBytes / n / 1024,
		"peak_heap_mb":     w.RT.PeakHeapMiB,
		// Not gated: see README.md on why the median is per-layer.
		"client.latency_p50_ms": p50.Value,
	}, []pct{p50, tail}, nil
}
