package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/bpmax-go/bpmax"
)

// goldenSeed is the seed whose reference answers are committed.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// answers are the reference results for one workload's inputs, in input
// order: Scores for fold, single and serve's hot set, LogZ for partition.
type answers struct {
	InputsSHA256 string    `json:"inputs_sha256"`
	Scores       []float32 `json:"scores,omitempty"`
	LogZ         []float64 `json:"logz,omitempty"`
}

type goldenFile struct {
	Seed      int64              `json:"seed"`
	Reference string             `json:"reference"`
	Workloads map[string]answers `json:"workloads"`
}

// referenceOptions selects the code path reference answers come from. The
// paper path is the original sequential schedule (base variant, one worker,
// classic Nussinov substrate): about 2.8 s per 16×128 pair here, so it only
// ever produces golden.json. The quick path — coarse-grain schedule, packed
// memory map, classic substrate, all CPUs — shares none of the measured
// default's schedule, memory map or substrate fast path and costs a tenth
// as much; it answers for every other seed, and -update-golden refuses to
// write a golden file the two paths disagree on.
func referenceOptions(paper bool) []bpmax.Option {
	if paper {
		return []bpmax.Option{bpmax.WithVariant(bpmax.Base), bpmax.WithWorkers(1),
			bpmax.WithSubstrateAlgorithm(bpmax.SubstrateClassic)}
	}
	return []bpmax.Option{bpmax.WithVariant(bpmax.Coarse), bpmax.WithPackedMemory(),
		bpmax.WithSubstrateAlgorithm(bpmax.SubstrateClassic)}
}

// partitionOptions is the algebra every partition fold and reference uses.
var partitionOptions = []bpmax.Option{bpmax.WithAlgebra(bpmax.AlgebraPartition), bpmax.WithKT(1)}

// reference computes the answers for in on the chosen reference path.
func reference(workload string, in inputs, paper bool) (answers, error) {
	a := answers{InputsSHA256: in.digest()}
	opts := referenceOptions(paper)
	for _, s := range in.Strands {
		res, err := bpmax.FoldSingle(s, opts...)
		if err != nil {
			return a, fmt.Errorf("reference %s: %w", workload, err)
		}
		a.Scores = append(a.Scores, res.Score)
	}
	if workload == "partition" {
		opts = append(opts, partitionOptions...)
	}
	for _, p := range in.Pairs {
		res, err := bpmax.Fold(p[0], p[1], opts...)
		if err != nil {
			return a, fmt.Errorf("reference %s: %w", workload, err)
		}
		if workload == "partition" {
			a.LogZ = append(a.LogZ, res.LogZ)
		} else {
			a.Scores = append(a.Scores, res.Score)
		}
	}
	return a, nil
}

// expected returns the answers the program must reproduce: the committed
// golden ones for the golden seed at full size, otherwise the quick
// reference computed now — before set-up, never inside a timed section.
func (env *environment) expected(w workload) (answers, error) {
	workload := w.name
	in := generate(workload, env.seed, env.sz)
	if env.seed != goldenSeed || env.sz != fullSizes {
		return reference(workload, in, false)
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return answers{}, fmt.Errorf("golden.json: %w", err)
	}
	a, ok := g.Workloads[workload]
	if !ok || a.InputsSHA256 != in.digest() {
		return answers{}, fmt.Errorf("golden.json does not match the generated %s inputs; run with -update-golden", workload)
	}
	return a, nil
}

func sameScore(got, want float32) bool { return got == want }

func sameLogZ(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// updateGolden regenerates golden.json on the paper path and cross-checks
// it against the quick path every other seed relies on.
func updateGolden(dir string) error {
	g := goldenFile{
		Seed:      goldenSeed,
		Reference: "WithVariant(Base), WithWorkers(1), WithSubstrateAlgorithm(SubstrateClassic)",
		Workloads: map[string]answers{},
	}
	for _, w := range workloadNames {
		in := generate(w, goldenSeed, fullSizes)
		paper, err := reference(w, in, true)
		if err != nil {
			return err
		}
		quick, err := reference(w, in, false)
		if err != nil {
			return err
		}
		for i := range paper.Scores {
			if !sameScore(quick.Scores[i], paper.Scores[i]) {
				return fmt.Errorf("%s input %d: quick reference scores %v, paper reference %v", w, i, quick.Scores[i], paper.Scores[i])
			}
		}
		for i := range paper.LogZ {
			if !sameLogZ(quick.LogZ[i], paper.LogZ[i]) {
				return fmt.Errorf("%s input %d: quick reference logZ %v, paper reference %v", w, i, quick.LogZ[i], paper.LogZ[i])
			}
		}
		g.Workloads[w] = paper
		fmt.Fprintf(os.Stderr, "golden: %s: %d answers, both reference paths agree\n", w, len(paper.Scores)+len(paper.LogZ))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(b, '\n'), 0o644)
}
