package benchrec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/topo"
)

// TopoSample is one fabric × P cell of the topology-scaling record:
// charge-oracle construction time and per-message pricing throughput.
type TopoSample struct {
	Fabric string `json:"fabric"`
	P      int    `json:"p"`
	// Links is the fabric's link id space — the oracle's memory scale.
	Links int `json:"links"`
	// BuildNs is NewNetwork wall time in nanoseconds.
	BuildNs float64 `json:"buildNs"`
	// ChargeNsPerOp and ChargesPerSec measure the Charge hot path.
	ChargeNsPerOp  float64 `json:"chargeNsPerOp"`
	ChargesPerSec  float64 `json:"chargesPerSec"`
	ChargeAllocsOp int64   `json:"chargeAllocsPerOp"`
	// MaxChi and MaxHops summarize the built oracle, tying each perf
	// sample to the contention model it priced.
	MaxChi  float64 `json:"maxChi"`
	MaxHops int     `json:"maxHops"`
}

// TopoRecord is the snapshot written to BENCH_topo_scaling.json.
type TopoRecord struct {
	Benchmark  string       `json:"benchmark"`
	Date       string       `json:"date"`
	GoVersion  string       `json:"goVersion"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Samples    []TopoSample `json:"samples"`
}

// TopoFabrics names one spec per fabric kind at each supported rank count:
// a near-cubic torus, a full-bisection fat-tree, and 64-rank (or smaller)
// two-level nodes.
func TopoFabrics(p int) []string {
	switch p {
	case 64:
		return []string{"twolevel=8", "torus=4x4x4", "fattree=4x3"}
	case 1024:
		return []string{"twolevel=32", "torus=8x8x16", "fattree=4x5"}
	case 4096:
		return []string{"twolevel=64", "torus=16x16x16", "fattree=4x6"}
	case 1 << 16:
		return []string{"twolevel=64", "torus=16x16x16x16", "fattree=4x8"}
	default:
		return nil
	}
}

// RunTopoScaling measures charge-oracle construction and Charge throughput
// for every fabric at every rank count and returns the filled record.
// progress, when non-nil, is called before each cell.
func RunTopoScaling(ps []int, progress func(fabric string, p int)) (TopoRecord, error) {
	rec := TopoRecord{
		Benchmark:  "TopoScaling",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, p := range ps {
		fabrics := TopoFabrics(p)
		if fabrics == nil {
			return TopoRecord{}, fmt.Errorf("benchrec: no fabric specs for P=%d (supported: 64, 1024, 4096, 65536)", p)
		}
		for _, spec := range fabrics {
			if progress != nil {
				progress(spec, p)
			}
			sample, err := topoCell(spec, p)
			if err != nil {
				return TopoRecord{}, err
			}
			rec.Samples = append(rec.Samples, sample)
		}
	}
	return rec, nil
}

// topoCell builds one fabric's charge oracle (best construction time of
// three) and benchmarks Charge over a strided pair cycle.
func topoCell(spec string, p int) (TopoSample, error) {
	t, err := topo.Parse(spec, p, topo.Link{Alpha: 1, Beta: 1})
	if err != nil {
		return TopoSample{}, err
	}
	pl, err := topo.PlaceRanks(p, t, topo.Contiguous)
	if err != nil {
		return TopoSample{}, err
	}
	var n *topo.Network
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		n, err = topo.NewNetwork(t, pl)
		if err != nil {
			return TopoSample{}, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		s, d := 0, 1
		for i := 0; i < b.N; i++ {
			a, bb := n.Charge(s, d)
			sink += a + bb
			s = (s + 479) % p
			d = (d + 281) % p
			if s == d {
				d = (d + 1) % p
			}
		}
		topoSink = sink
	})
	ns := float64(res.NsPerOp())
	return TopoSample{
		Fabric:         spec,
		P:              p,
		Links:          t.NumLinks(),
		BuildNs:        float64(best.Nanoseconds()),
		ChargeNsPerOp:  ns,
		ChargesPerSec:  1e9 / ns,
		ChargeAllocsOp: res.AllocsPerOp(),
		MaxChi:         n.MaxCongestion(),
		MaxHops:        n.MaxHops(),
	}, nil
}

var topoSink float64

// WriteFile writes the record as indented JSON, the format the repo tracks
// in git as BENCH_topo_scaling.json.
func (rec TopoRecord) WriteFile(path string) error {
	return writeJSONFile(rec, path)
}
