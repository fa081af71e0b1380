package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mcsafe"
	"mcsafe/internal/annotate"
	"mcsafe/internal/cfg"
	"mcsafe/internal/expr"
	"mcsafe/internal/isa"
	"mcsafe/internal/policy"
	"mcsafe/internal/propagate"
	"mcsafe/internal/server"
	"mcsafe/internal/solver"
	"mcsafe/internal/vcgen"
	"mcsafe/internal/vstore"
)

// ledger collects the traced run's spans: each call into a layer is
// timed from the benchmark's side and charged its heap allocation.
type ledger struct {
	us     map[string][]float64 // span durations, microseconds
	allocs map[string]float64   // allocated bytes per span kind
	counts map[string]float64
}

func newLedger() *ledger {
	return &ledger{us: map[string][]float64{}, allocs: map[string]float64{}, counts: map[string]float64{}}
}

// span runs f as one span of kind name.
func (l *ledger) span(name string, f func()) time.Duration {
	a0 := allocBytes()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.allocs[name] += float64(allocBytes() - a0)
	l.us[name] = append(l.us[name], float64(d.Nanoseconds())/1e3)
	return d
}

// repeat runs a cheap, side-effect-free call reps times as separate
// spans, so each request contributes enough samples for a median.
func (l *ledger) repeat(name string, reps int, f func()) {
	for i := 0; i < reps; i++ {
		l.span(name, f)
	}
}

// p50 is the guarded median of a span kind, in its recorded unit.
func (l *ledger) p50(name string) (pct, error) {
	return guardedPercentile(l.us[name], 50)
}

// perSpanMean is the mean duration of a span kind in milliseconds and
// its mean allocation in MiB.
func (l *ledger) perSpanMean(name string) (ms, mib float64) {
	n := float64(len(l.us[name]))
	if n == 0 {
		return 0, 0
	}
	return mean(l.us[name]) / 1e3, l.allocs[name] / n / (1 << 20)
}

// replayRef is one distinct request of the workload with the reference
// the program produced for it during the run.
type replayRef struct {
	it  *item
	ref verdict
}

// cheapReps is how often each cheap call is repeated per request.
const cheapReps = 21

// replay re-enacts, call by call, what server.process does for each
// request, timing every call into a layer: JSON decode → spec parse →
// assembly → content addresses → store lookup → (miss) the five phases
// of internal/core → wire encoding → durable commit, then memory and (after a
// reopen) disk hits. It returns fidelity failures: content addresses,
// verdicts and wire bytes that differ from what the program produced.
func replay(l *ledger, refs []replayRef, parallelism int, dir string) error {
	store, err := vstore.Open(dir, vstore.Options{MemBytes: 64 << 20, DiskBytes: 1 << 30})
	if err != nil {
		return err
	}
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	keys := make([]vstore.Key, 0, len(refs))
	for _, r := range refs {
		it := r.it
		var req server.CheckRequest
		l.repeat("server.decode", cheapReps, func() {
			req = server.CheckRequest{}
			err = json.Unmarshal(it.Body, &req)
		})
		if err != nil {
			fail("%s: decode: %v", it.Name, err)
			continue
		}
		arch := it.arch()
		var spec *mcsafe.Spec
		l.repeat("policy.parse", cheapReps, func() { spec, err = mcsafe.ParseSpecArch(req.Spec, arch) })
		if err != nil {
			fail("%s: spec: %v", it.Name, err)
			continue
		}
		front := "sparc.assemble"
		if arch == "rv32i" {
			front = "riscv.assemble"
		}
		var prog *mcsafe.Program
		l.repeat(front, cheapReps, func() { prog, err = mcsafe.AssembleArch(arch, req.Asm, spec, req.Entry) })
		if err != nil {
			fail("%s: assemble: %v", it.Name, err)
			continue
		}
		var fp, ph mcsafe.Hash
		l.repeat("mcsafe.fingerprint", cheapReps, func() { fp = prog.Fingerprint() })
		l.repeat("mcsafe.spec_hash", cheapReps, func() { ph = spec.Hash() })
		if fp.String() != r.ref.Program || ph.String() != r.ref.Policy {
			fail("%s: replayed address (%.12s, %.12s) differs from the server's (%.12s, %.12s)",
				it.Name, fp, ph, r.ref.Program, r.ref.Policy)
		}
		key := vstore.Key{Program: fp.String(), Policy: ph.String(), Checker: mcsafe.CheckerVersion}
		if _, ok, err := store.Get(key); ok || err != nil {
			fail("%s: replay store lookup should miss (hit=%v, err=%v)", it.Name, ok, err)
		}

		safe, codes, total, err := reenact(l, it, req, parallelism)
		if err != nil {
			fail("%s: core phases: %v", it.Name, err)
			continue
		}
		if it.Paper {
			l.counts["core.check_ms."+it.Name] = float64(total.Nanoseconds()) / 1e6
		}
		w, err := mcsafe.UnmarshalWire(r.ref.Wire)
		if err != nil {
			fail("%s: reference verdict: %v", it.Name, err)
			continue
		}
		if refCodes := violationCodes(w.Violations); safe != w.Safe || !slices.Equal(codes, refCodes) {
			fail("%s: re-enacted phases say safe=%v %v, Checker.Check said safe=%v %v", it.Name, safe, codes, w.Safe, refCodes)
		}
		res := w.Result()
		var wire []byte
		l.repeat("wire.marshal", cheapReps, func() { wire, err = res.MarshalWire() })
		if err != nil || !bytes.Equal(wire, r.ref.Wire) {
			fail("%s: re-encoded verdict differs from the program's (err=%v)", it.Name, err)
			continue
		}
		l.counts["wire.bytes"] += float64(len(wire))
		l.counts["wire.verdicts"]++
		for i := 0; i < 3; i++ {
			l.span("vstore.put", func() { err = store.Put(key, wire) })
			if err != nil {
				fail("%s: put: %v", it.Name, err)
			}
		}
		l.repeat("vstore.get_mem", cheapReps, func() {
			var ok bool
			if _, ok, err = store.Get(key); !ok && err == nil {
				err = errors.New("memory lookup missed")
			}
		})
		if err != nil {
			fail("%s: get: %v", it.Name, err)
		}
		keys = append(keys, key)
	}
	// Disk hits: each reopen empties the memory layer, so the first
	// lookup of every key reads its record back from disk.
	for round := 0; round < 3; round++ {
		if err := store.Close(); err != nil {
			fail("close store: %v", err)
		}
		if store, err = vstore.Open(dir, vstore.Options{MemBytes: 64 << 20, DiskBytes: 1 << 30}); err != nil {
			return errors.Join(append(errs, err)...)
		}
		before := store.Stats().DiskHits
		for _, key := range keys {
			l.span("vstore.get_disk", func() { _, _, err = store.Get(key) })
		}
		if got := store.Stats().DiskHits - before; got != int64(len(keys)) {
			fail("reopened store served %d of %d lookups from disk", got, len(keys))
		}
	}
	if err := store.Close(); err != nil {
		fail("close store: %v", err)
	}
	return errors.Join(errs...)
}

// reenact runs the five phases the way internal/core runs them,
// with a span around each, and returns the verdict, the sorted
// violation codes and the time of the four phases together.
func reenact(l *ledger, it *item, req server.CheckRequest, parallelism int) (bool, []string, time.Duration, error) {
	a, err := isa.Get(it.arch())
	if err != nil {
		return false, nil, 0, err
	}
	spec, err := policy.Parse(req.Spec, a)
	if err != nil {
		return false, nil, 0, err
	}
	prog, err := a.Assemble(req.Asm, isa.AsmOptions{DataSyms: spec.DataSyms(), Entry: req.Entry, Externs: spec.TrustedNames()})
	if err != nil {
		return false, nil, 0, err
	}
	var (
		ini   *policy.Initial
		g     *cfg.Graph
		prop  *propagate.Result
		ann   *annotate.Annotations
		conds []vcgen.CondResult
		total time.Duration
	)
	total += l.span("cfg.prepare", func() {
		if ini, err = policy.Prepare(spec); err == nil {
			g, err = cfg.Build(prog, cfg.Options{TrustedFuncs: spec.TrustedNames()})
		}
	})
	if err != nil {
		return false, nil, 0, err
	}
	total += l.span("propagate.typestate", func() { prop = propagate.Run(g, ini) })
	total += l.span("annotate.annot_local", func() { ann = annotate.Run(prop) })
	total += l.span("vcgen.global", func() {
		var prover *solver.Prover
		if parallelism == 1 {
			prover = solver.New()
		} else {
			prover = solver.NewShared(solver.NewShardedCache())
		}
		prover.Intern = expr.NewInterner()
		eng := vcgen.New(prop, prover, vcgen.Options{Parallelism: parallelism})
		conds, err = eng.ProveContext(context.Background(), ann.Conds)
	})
	if err != nil {
		return false, nil, 0, err
	}
	var codes []string
	for _, v := range ann.LocalViolations {
		codes = append(codes, v.Code)
	}
	for _, cr := range conds {
		switch {
		case cr.Proved:
		case cr.Resource:
			codes = append(codes, annotate.CodeResource)
		default:
			codes = append(codes, cr.Cond.Code)
		}
	}
	sort.Strings(codes)
	return len(codes) == 0, codes, total, nil
}
