// Command benchrec runs a single BandwidthOnly counting world and prints
// its wall time and totals — the CI smoke proving a million-rank world
// fits and finishes:
//
//	benchrec -counting 1000000
//
// Exit status is 0 on success, 2 without a positive -counting, 1 on any
// other failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchrec"
)

func main() {
	counting := flag.Int("counting", 0, "run one BandwidthOnly counting world of this many ranks")
	flag.Parse()

	if *counting <= 0 {
		fmt.Fprintln(os.Stderr, "benchrec: -counting N needs a positive rank count")
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("counting run: P=%d\n", *counting)
	wall, stats, err := benchrec.CountingRun(*counting)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	fmt.Printf("done in %v: %d messages, %.0f words, critical path %.0f\n",
		wall, stats.TotalMessages, stats.TotalWordsSent, stats.CriticalPath)
}
