package main

import (
	"errors"
	"fmt"
	"strings"

	"mcsafe/internal/vstore"
)

func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverLayer derives the server and store metrics of a timed service:
// handler and transport time from the benchmark's timing handler, hit
// and cold round trips, the server's own counters and the store's
// statistics, each count per request. It cross-checks the store's
// statistics against the server's counters.
func serverLayer(rep *report, timing map[int]int64, ops []op, colds []coldResult, ctr map[string]int64, st0, st1 vstore.Stats, requests int) error {
	vals := rep.Values
	var handler, transport, hits, coldMS, overhead []float64
	pair := func(seq int, ms float64) {
		if ns, ok := timing[seq]; ok {
			handler = append(handler, float64(ns)/1e3)
			transport = append(transport, ms*1e3-float64(ns)/1e3)
		}
	}
	for _, o := range ops {
		if o.Err != nil {
			continue
		}
		pair(o.Seq, o.MS)
		if o.Cached {
			hits = append(hits, o.MS*1e3)
		} else if o.Cold != nil {
			colds = append(colds, *o.Cold)
		}
	}
	for _, c := range colds {
		if c.Seq >= coldSeq {
			pair(c.Seq, c.MS)
		}
		coldMS = append(coldMS, c.MS)
		if ns, ok := timing[c.Seq]; ok {
			// What the service adds to a miss besides the check itself:
			// decode, assembly, addresses, lookup, admission, wire
			// encoding and the durable commit.
			overhead = append(overhead, float64(ns)/1e6-float64(c.CheckNS)/1e6)
		}
	}
	var errs []error
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"server.handler_us_p50", handler}, {"server.transport_us_p50", transport}, {"server.hit_us_p50", hits}} {
		p, err := guardedPercentile(m.xs, 50)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.name, err))
		}
		rep.logf("  %s: %s", m.name, p)
		vals[m.name] = p.Value
	}
	rep.logf("  server.cold_ms_mean over %d cold submissions, server.cold_overhead_ms over %d", len(coldMS), len(overhead))
	vals["server.cold_ms_mean"] = mean(coldMS)
	vals["server.cold_overhead_ms"] = mean(overhead)
	vals["server.hit_ratio"] = ratio(float64(ctr["server_store_hits"]), float64(ctr["server_requests"]))
	n := float64(requests)
	for _, c := range obsCounters {
		if strings.HasPrefix(c.Counter, "server_") {
			vals[c.Name] = float64(ctr[c.Counter]) / n
		}
	}
	vals["vstore.mem_hits"] = float64(st1.MemHits-st0.MemHits) / n
	vals["vstore.disk_hits"] = float64(st1.DiskHits-st0.DiskHits) / n
	vals["vstore.misses"] = float64(st1.Misses-st0.Misses) / n
	vals["vstore.puts"] = float64(st1.Puts-st0.Puts) / n
	vals["vstore.put_errors"] = float64(st1.PutErrors-st0.PutErrors) / n

	hitsGot := st1.MemHits - st0.MemHits + st1.DiskHits - st0.DiskHits
	if hitsGot != ctr["server_store_hits"] || st1.Misses-st0.Misses != ctr["server_store_misses"] || st1.Puts-st0.Puts != ctr["server_store_puts"] {
		errs = append(errs, fmt.Errorf("store statistics (hits %d, misses %d, puts %d) disagree with server counters (hits %d, misses %d, puts %d)",
			hitsGot, st1.Misses-st0.Misses, st1.Puts-st0.Puts, ctr["server_store_hits"], ctr["server_store_misses"], ctr["server_store_puts"]))
	}
	return errors.Join(errs...)
}

// workCounters reports the checker's exact work counters per op.
func workCounters(vals map[string]float64, ctr map[string]int64, ops int) {
	for _, c := range obsCounters {
		if !strings.HasPrefix(c.Counter, "server_") {
			vals[c.Name] = float64(ctr[c.Counter]) / float64(ops)
		}
	}
	vals["solver.cache_hit_ratio"] = ratio(float64(ctr["solver_cache_hits"]), float64(ctr["solver_valid_queries"]))
}

func runtimeLayer(vals map[string]float64, w *window) {
	vals["runtime.gc_cycles_per_op"] = w.RT.GCCycles / float64(len(w.Lat))
	vals["runtime.gc_cpu_fraction"] = w.RT.GCCPUFrac
}

// replayLayer runs the traced replay and reports its spans.
func replayLayer(rep *report, refs []replayRef, parallelism int, dir string) error {
	vals := rep.Values
	l := newLedger()
	rep.logf("  replaying %d distinct requests", len(refs))
	errs := []error{replay(l, refs, parallelism, dir)}
	for _, c := range callSpans {
		p, err := l.p50(c.Span)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.Name, err))
		}
		rep.logf("  %s: %s", c.Name, p)
		vals[c.Name] = p.Value
	}
	for _, p := range phaseSpans {
		vals[p.Time], vals[p.Alloc] = l.perSpanMean(p.Span)
	}
	for _, n := range paperNames {
		vals["core.check_ms."+n] = l.counts["core.check_ms."+n]
	}
	vals["wire.bytes_per_verdict"] = ratio(l.counts["wire.bytes"], l.counts["wire.verdicts"])
	return errors.Join(errs...)
}
