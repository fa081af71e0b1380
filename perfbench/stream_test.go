package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func streamBytes(p *churnPlan) []byte {
	var b bytes.Buffer
	for _, s := range p.Stream {
		b.Write(s.Item.Body)
		if s.Cached {
			b.WriteString(" cached")
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func testRV(t *testing.T) item {
	rv, err := rv32iItem("..")
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func TestChurnStreamDeterministic(t *testing.T) {
	rv := testRV(t)
	a, b := newChurnPlan(7, 40, rv), newChurnPlan(7, 40, rv)
	if !bytes.Equal(streamBytes(a), streamBytes(b)) {
		t.Fatal("the same seed gave different request streams")
	}
	c := newChurnPlan(8, 40, rv)
	for i := range a.Fresh {
		if a.Fresh[i].Asm == c.Fresh[i].Asm {
			t.Errorf("fresh fixture %d is the same under seeds 7 and 8", i)
		}
	}
}

func TestChurnStreamShape(t *testing.T) {
	const blocks = 60
	p := newChurnPlan(3, blocks, testRV(t))
	if len(p.Pre) != blocks || len(p.Fresh) != blocks || len(p.Stream) != blocks*churnBlock {
		t.Fatalf("%d pre-restart records, %d fresh fixtures, %d requests for %d blocks", len(p.Pre), len(p.Fresh), len(p.Stream), blocks)
	}
	seen := map[string]bool{}
	for _, it := range append(append([]item(nil), p.Pre...), p.Fresh...) {
		key := it.Arch + it.Asm + it.Spec
		if seen[key] {
			t.Fatalf("%s repeats earlier content; a fresh request would hit", it.Name)
		}
		seen[key] = true
	}
	kinds := map[bool]int{}
	for b := 0; b < blocks; b++ {
		misses := 0
		for _, s := range p.Stream[b*churnBlock : (b+1)*churnBlock] {
			if !s.Cached {
				misses++
				kinds[s.Item.WantSafe]++
			}
		}
		if misses != 1 {
			t.Fatalf("block %d has %d misses, want 1", b, misses)
		}
	}
	if kinds[true] != blocks/6 {
		t.Errorf("%d safe fresh fixtures in %d blocks, want one in six", kinds[true], blocks)
	}
}

func TestHotStreamDeterministic(t *testing.T) {
	a, b, c := hotStream(28, 5, 1000), hotStream(28, 5, 1000), hotStream(28, 6, 1000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different hot streams")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same hot stream")
	}
	// Whole cycles: every item once per 28 requests.
	for k := 0; k+28 <= len(a); k += 28 {
		cycle := slices.Clone(a[k : k+28])
		slices.Sort(cycle)
		for i, v := range cycle {
			if v != i {
				t.Fatalf("cycle at %d is not a permutation: %v", k, a[k:k+28])
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"paper13", "service-hot", "service-churn"}) {
		t.Errorf("workloads %v", names)
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program reports %v", bj.EndToEnd, endToEnd)
	}
	if !slices.Equal(bj.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's:\n%v\n%v", bj.PerLayer, perLayer())
	}
}
