// Command paper regenerates the evaluation artifacts of the paper — every
// table and figure — and prints them to stdout (optionally writing CSVs):
//
//	paper                # all artifacts
//	paper -only table1   # one artifact: table1, lemma2, bounds, fig1,
//	                     # fig2, tight, algs, scaling, memory, geometry,
//	                     # carma, extension, fastmm, models, caps,
//	                     # memtradeoff, topology, hbl, fabricscale
//	paper -list          # print those 19 names and exit
//	paper -json          # emit the artifacts as a JSON array
//	paper -csv out/      # additionally write <id>.csv files
//	paper -workers 4     # evaluate sweep points on 4 goroutines
//
// The simulation-backed experiments fan their sweep points across -workers
// goroutines (default GOMAXPROCS); the artifacts are byte-identical for
// every worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single artifact (table1|lemma2|bounds|fig1|fig2|tight|algs|scaling|memory|geometry|carma|extension|fastmm|models|caps|memtradeoff|topology|hbl|fabricscale)")
	csvDir := flag.String("csv", "", "directory to write <id>.csv files into")
	jsonOut := flag.Bool("json", false, "emit the artifacts as a JSON array instead of text")
	list := flag.Bool("list", false, "list the available artifact names and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"sweep points evaluated concurrently; output is identical for every value")
	flag.Parse()
	experiments.SetWorkers(*workers)

	if *list {
		for _, name := range []string{
			"table1", "lemma2", "bounds", "fig1", "fig2", "tight", "algs",
			"scaling", "memory", "geometry", "carma", "extension", "fastmm",
			"models", "caps", "memtradeoff", "topology", "hbl", "fabricscale",
		} {
			fmt.Println(name)
		}
		return
	}

	arts, err := selectArtifacts(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(arts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, a := range arts {
		fmt.Println(a.String())
		if *csvDir != "" && a.CSV != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, a.ID+".csv")
			if err := os.WriteFile(path, []byte(a.CSV), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
	}
}

func selectArtifacts(only string) ([]experiments.Artifact, error) {
	switch strings.ToLower(only) {
	case "":
		arts, err := experiments.All()
		if err != nil {
			return nil, err
		}
		// Append the extras not in the default set.
		extra, err := experiments.StrongScaling(experiments.DefaultRectDims, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
		if err != nil {
			return nil, err
		}
		return append(arts,
			experiments.Table1Numeric(experiments.PaperRectDims, []int{1, 3, 4, 16, 36, 64, 256, 512, 4096}),
			extra,
		), nil
	case "table1":
		return []experiments.Artifact{
			experiments.Table1(),
			experiments.Table1Numeric(experiments.PaperRectDims, []int{1, 3, 4, 16, 36, 64, 256, 512, 4096}),
		}, nil
	case "lemma2":
		return []experiments.Artifact{experiments.Lemma2Cases(experiments.DefaultRectDims)}, nil
	case "bounds":
		return []experiments.Artifact{experiments.BoundCurves(experiments.PaperRectDims, 1<<20)}, nil
	case "fig1":
		a, err := experiments.Figure1(experiments.DefaultFig1N, 27)
		return []experiments.Artifact{a}, err
	case "fig2":
		return []experiments.Artifact{experiments.Figure2()}, nil
	case "tight":
		a, err := experiments.Tightness()
		return []experiments.Artifact{a}, err
	case "algs":
		a, err := experiments.AlgorithmComparison(experiments.DefaultCompareN, experiments.DefaultCompareP)
		return []experiments.Artifact{a}, err
	case "scaling":
		a, err := experiments.StrongScaling(experiments.DefaultRectDims, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
		return []experiments.Artifact{a}, err
	case "memory":
		return []experiments.Artifact{experiments.LimitedMemory(experiments.DefaultSquareN, experiments.DefaultMemoryWords)}, nil
	case "geometry":
		a, err := experiments.Geometry()
		return []experiments.Artifact{a}, err
	case "carma":
		return []experiments.Artifact{experiments.CARMAComparison()}, nil
	case "extension":
		a, err := experiments.Extension()
		return []experiments.Artifact{a}, err
	case "memtradeoff":
		a, err := experiments.MemoryTradeoff(experiments.DefaultRectDims, 512)
		return []experiments.Artifact{a}, err
	case "caps":
		a, err := experiments.CAPSExperiment(56)
		return []experiments.Artifact{a}, err
	case "models":
		a, err := experiments.ModelRobustness()
		return []experiments.Artifact{a}, err
	case "fastmm":
		a, err := experiments.FastMatmul(4096, []int{1, 8, 64, 512, 4096})
		return []experiments.Artifact{a}, err
	case "topology":
		a, err := experiments.TopologySweep()
		return []experiments.Artifact{a}, err
	case "hbl":
		a, err := experiments.HBLPrograms()
		return []experiments.Artifact{a}, err
	case "fabricscale":
		// The datacenter-scale payoff run: P = 65536 on the event engine,
		// priced by the walk-mode charge oracle. Not part of the default
		// set — it takes tens of seconds where the rest take milliseconds.
		a, err := experiments.FabricScale(65536)
		return []experiments.Artifact{a}, err
	default:
		return nil, fmt.Errorf("paper: unknown artifact %q", only)
	}
}
