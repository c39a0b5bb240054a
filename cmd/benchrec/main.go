// Command benchrec records simulator performance. Two modes:
//
//	benchrec -counting 1000000
//	    runs a single BandwidthOnly counting world of that many ranks and
//	    prints wall time and totals — the CI smoke proving a million-rank
//	    world fits and finishes.
//
//	benchrec -topo [-out BENCH_topo_scaling.json] [-p 1024,4096,65536]
//	    records topology charge-oracle construction time and Charge
//	    throughput per fabric at each P (table mode at small P, O(hops)
//	    walk mode at 65536) and writes the JSON record.
//
// Exit status is 0 on success, 2 when no mode is chosen, 1 on any other
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchrec"
)

func main() {
	out := flag.String("out", "BENCH_topo_scaling.json", "output path for the -topo record")
	plist := flag.String("p", "1024,4096,65536", "comma-separated processor counts for the -topo matrix")
	counting := flag.Int("counting", 0, "run one BandwidthOnly counting world of this many ranks")
	topoScaling := flag.Bool("topo", false, "record the topology charge-oracle scaling matrix")
	flag.Parse()

	if *counting <= 0 && !*topoScaling {
		fmt.Fprintln(os.Stderr, "benchrec: choose a mode: -counting N or -topo")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *plist, *counting); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
}

func run(out, plist string, counting int) error {
	if counting > 0 {
		fmt.Printf("counting run: P=%d\n", counting)
		wall, stats, err := benchrec.CountingRun(counting)
		if err != nil {
			return err
		}
		fmt.Printf("done in %v: %d messages, %.0f words, critical path %.0f\n",
			wall, stats.TotalMessages, stats.TotalWordsSent, stats.CriticalPath)
		return nil
	}

	ps, err := parsePs(plist)
	if err != nil {
		return err
	}
	rec, err := benchrec.RunTopoScaling(ps, func(fabric string, p int) {
		fmt.Printf("bench: fabric=%s P=%d\n", fabric, p)
	})
	if err != nil {
		return err
	}
	for _, s := range rec.Samples {
		fmt.Printf("  %-18s P=%-6d %-5s build %10.0f ns  charge %8.1f ns/op %12.0f charges/s\n",
			s.Fabric, s.P, s.Mode, s.BuildNs, s.ChargeNsPerOp, s.ChargesPerSec)
	}
	if err := rec.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d samples)\n", out, len(rec.Samples))
	return nil
}

func parsePs(plist string) ([]int, error) {
	var ps []int
	for _, f := range strings.Split(plist, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		p, err := strconv.Atoi(f)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad processor count %q", f)
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("no processor counts in %q", plist)
	}
	return ps, nil
}
