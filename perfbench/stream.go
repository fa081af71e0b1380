package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"

	"mcsafe/internal/gen"
	"mcsafe/internal/progs"
	"mcsafe/internal/server"
)

// item is one distinct submission with its ground truth.
type item struct {
	Name string
	Arch string // "" submits under the server's default architecture (sparc)
	Asm  string
	Spec string
	// Entry is the entry label.
	Entry string
	// Body is the POST /v1/check body, built the way `mcsafed -check`
	// builds it: assembly text plus policy text.
	Body []byte
	// WantSafe is the ground-truth verdict; WantCodes the violation
	// codes that must be charged when unsafe.
	WantSafe  bool
	WantCodes []string
	// Paper marks the 13 Figure 9 programs (check_ms_geomean's set).
	Paper bool
}

func newItem(name, arch, asm, spec, entry string, wantSafe bool, wantCodes []string, paper bool) item {
	body, err := json.Marshal(server.CheckRequest{Arch: arch, Asm: asm, Spec: spec, Entry: entry})
	if err != nil {
		// A struct of strings always marshals.
		panic(err)
	}
	return item{Name: name, Arch: arch, Asm: asm, Spec: spec, Entry: entry, Body: body,
		WantSafe: wantSafe, WantCodes: wantCodes, Paper: paper}
}

// arch is the architecture name the item is assembled for.
func (it *item) arch() string {
	if it.Arch == "" {
		return "sparc"
	}
	return it.Arch
}

// paperItems returns the 13 Figure 9 programs in the paper's column
// order.
func paperItems() []item {
	var out []item
	for _, b := range progs.All() {
		out = append(out, newItem(b.Name, "", b.Source, b.Spec, b.Entry, b.WantSafe, b.WantCodes, true))
	}
	return out
}

func fixtureItem(f *gen.Fixture) item {
	var codes []string
	if !f.WantSafe {
		codes = []string{f.WantCode}
	}
	return newItem(f.Name, "", f.Asm, f.Spec, f.Entry, f.WantSafe, codes, false)
}

// rv32iItem loads the repository's RV32I sample, which puts the riscv
// front-end on the measured path.
func rv32iItem(root string) (item, error) {
	asm, err := os.ReadFile(filepath.Join(root, "testdata", "rv32i_sum.s"))
	if err != nil {
		return item{}, err
	}
	spec, err := os.ReadFile(filepath.Join(root, "testdata", "rv32i_sum.spec"))
	if err != nil {
		return item{}, err
	}
	return newItem("rv32i_sum", "rv32i", string(asm), string(spec), "sum", true, nil, false), nil
}

// hotFixtureSizes are the sizes of service-hot's generated fixtures, up
// to the 240 instructions where assembly starts to dominate a hit.
var hotFixtureSizes = []int{40, 80, 120, 160, 200, 240}

// hotWorkingSet is service-hot's fixed working set: the 13 programs,
// 36 gen fixtures (every size with every ground-truth kind) and the
// RV32I sample. Fifty items put MD5, whose hit costs several times any
// other, at 2% of the requests, so the p99 lands mid-way through MD5's
// hits rather than on the edge of them. The set does not depend on the
// workload seed; the seed orders the requests.
func hotWorkingSet(rv item) []item {
	set := paperItems()
	for i := 0; i < len(hotFixtureSizes)*len(gen.Kinds); i++ {
		f := gen.Generate(gen.Config{
			Seed: int64(9000 + i),
			Size: hotFixtureSizes[i%len(hotFixtureSizes)],
			Kind: gen.Kinds[i/len(hotFixtureSizes)],
		})
		set = append(set, fixtureItem(f))
	}
	return append(set, rv)
}

// hotStream orders n requests over the working set: whole cycles, each
// visiting every item once in a seeded order, so any window holds the
// working set in equal measure.
func hotStream(setSize int, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(setSize) {
			if len(out) == n {
				break
			}
			out = append(out, i)
		}
	}
	return out
}

// Churn stream shape: blocks of churnBlock requests, each holding one
// never-seen fixture (a miss), one first touch of a pre-restart record
// (a disk hit) and churnBlock-2 repeats of records already touched
// (memory hits).
const churnBlock = 10

// churnSizes cycle the small fresh fixtures' sizes.
var churnSizes = []int{40, 60, 80}

// preKinds are the pre-restart fixtures' kinds: every ground truth
// except align, whose ~0.4 s checks would dominate set-up.
var preKinds = []gen.Kind{gen.Safe, gen.OOB, gen.Uninit, gen.NullPtr, gen.Stack}

// step is one request of a churn stream.
type step struct {
	Item   *item
	Cached bool // the server must answer from its store
}

// churnPlan is service-churn's whole input, a pure function of the
// seed and the block count.
type churnPlan struct {
	// Pre is committed through the server before the restart: the 13
	// programs, the RV32I sample and generated fixtures.
	Pre []item
	// Fresh holds one never-seen fixture per block, cycling through all
	// six ground-truth kinds.
	Fresh  []item
	Stream []step
}

// newChurnPlan builds the plan for blocks blocks. Pre holds exactly one
// record per block, so every block's first touch finds a record that
// has not been read since the restart.
func newChurnPlan(seed int64, blocks int, rv item) *churnPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &churnPlan{}
	seen := map[string]bool{}
	gseed := seed << 20
	next := func(size int, kind gen.Kind) item {
		for {
			gseed++
			f := gen.Generate(gen.Config{Seed: gseed, Size: size, Kind: kind})
			if !seen[f.Asm] {
				seen[f.Asm] = true
				return fixtureItem(f)
			}
		}
	}
	p.Pre = append(paperItems(), rv)
	for i := 0; len(p.Pre) < blocks; i++ {
		p.Pre = append(p.Pre, next(churnSizes[i%len(churnSizes)], preKinds[i%len(preKinds)]))
	}
	for b := 0; b < blocks; b++ {
		p.Fresh = append(p.Fresh, next(churnSizes[b%len(churnSizes)], gen.Kinds[b%len(gen.Kinds)]))
	}
	touch := rng.Perm(len(p.Pre))
	for b := 0; b < blocks; b++ {
		block := []step{{Item: &p.Fresh[b]}, {Item: &p.Pre[touch[b]], Cached: true}}
		for len(block) < churnBlock {
			block = append(block, step{Item: &p.Pre[touch[rng.Intn(b+1)]], Cached: true})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		p.Stream = append(p.Stream, block...)
	}
	return p
}
