// Command perfbench is mcsafe's benchmark: the checker as a library on
// the paper's 13 programs (paper13) and the mcsafed service on a hot
// and a churning request stream (service-hot, service-churn). See
// README.md for why each workload exists and what each metric means.
// From the root of a checkout, run.py builds and runs it:
//
//	python3 perfbench/run.py --workload paper13 --seed 1 --seconds 20 --trace 0
//
// It runs in the root of a checkout (testdata/ is read from there and
// run files go under .bench_build/), prints its account to standard
// error and, as the last line of standard output, one JSON object with
// the run's correctness, op counts and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "paper13, service-hot or service-churn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of a measured window")
	trace := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	c := runCfg{
		Workload: *workload, Seed: *seed, Window: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Root: root, Scratch: scratch, Conns: min(2, runtime.NumCPU()),
	}
	var rep *report
	switch c.Workload {
	case "paper13":
		rep, err = runPaper13(c)
	case "service-hot":
		rep, err = runHot(c)
	case "service-churn":
		rep, err = runChurn(c)
	default:
		err = fmt.Errorf("unknown workload %q (want paper13, service-hot or service-churn)", c.Workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !c.Trace {
		rep.Correct = rep.Failed == 0
	}

	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", c.Workload, c.Seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, l := range rep.Lines {
		fmt.Fprintln(os.Stderr, l)
	}
	specs := endToEnd
	if c.Trace {
		specs = perLayer()
		fmt.Fprintln(os.Stderr, "per-layer metrics:")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range specs {
		v := rep.Values[m.Name]
		metrics[m.Name] = value{v, m.Unit}
		if c.Trace {
			fmt.Fprintf(os.Stderr, "  %-32s %16.6f %s\n", m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
