// Command paper regenerates the evaluation artifacts of the paper — every
// table and figure — and prints them to stdout (optionally writing CSVs):
//
//	paper                # the default artifacts
//	paper -only table1   # the artifacts one name selects (table1: E1 and E1b)
//	paper -list          # print the names -only takes and exit
//	paper -json          # emit the artifacts as a JSON array
//	paper -csv out/      # additionally write <id>.csv files
//
// The simulation-backed experiments fan their sweep points across
// GOMAXPROCS goroutines; the artifacts are byte-identical at every
// GOMAXPROCS.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run the artifacts one name selects ("+strings.Join(experiments.Names(), "|")+")")
	csvDir := flag.String("csv", "", "directory to write <id>.csv files into")
	jsonOut := flag.Bool("json", false, "emit the artifacts as a JSON array instead of text")
	list := flag.Bool("list", false, "list the available artifact names and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
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

// selectArtifacts builds the default run's artifacts, or with a name only
// the artifacts it selects; names are case-insensitive.
func selectArtifacts(only string) ([]experiments.Artifact, error) {
	if only == "" {
		return experiments.All(context.Background())
	}
	arts, err := experiments.Named(context.Background(), strings.ToLower(only))
	if err != nil {
		return nil, fmt.Errorf("paper: %w", err)
	}
	return arts, nil
}
