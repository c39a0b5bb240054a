package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// marshalPoint is the oracle: encoding/json as the service configures it,
// without the trailing newline.
func marshalPoint(pt Point) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(pt); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// checkAppendJSON compares AppendJSON with the oracle: the same bytes, or
// an error from both. It appends after existing content, as the service
// does when it packs a chunk of rows into one buffer.
func checkAppendJSON(t *testing.T, pt Point) {
	t.Helper()
	want, wantErr := marshalPoint(pt)
	got, err := pt.AppendJSON([]byte("row:"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON(%+v) error %v, encoding/json error %v", pt, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got[4:], want) || string(got[:4]) != "row:" {
		t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", pt, got, want)
	}
	if len(want) > MaxPointJSON {
		t.Fatalf("%d bytes exceed MaxPointJSON = %d: %s", len(want), MaxPointJSON, want)
	}
}

// TestAppendJSONMatchesEncodingJSON checks every point of sweeps covering
// closed-form and topology-priced points, fitting and not, crossover and
// perfect scaling, then a point with every field at its longest encoding.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cfg := machine.Config{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-11}
	for _, req := range []Request{
		{Dims: core.NewDims(9600, 2400, 600), Mem: 40000, PMin: 64, PMax: 1024, Log2: true},
		{Dims: core.NewDims(9600, 2400, 600), Mem: 40000, PMin: 100, PMax: 3000, PStep: 7, Config: cfg},
		{Dims: core.NewDims(2000, 2000, 2000), Mem: 120000, PMin: 100, PMax: 2000, PStep: 50},
		{Dims: core.NewDims(512, 512, 512), Mem: 1e6, PMin: 8, PMax: 4096, Log2: true, Config: cfg, TopoSpec: "twolevel=4"},
	} {
		_, pts, err := Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			checkAppendJSON(t, pt)
		}
	}
	longest := -1.2345678901234567e-6 // 25 bytes, the most a float64 takes
	worst := Point{
		P: math.MinInt64, Case: math.MinInt64, TightConstant: longest, Bound: longest, LeadingTerm: longest,
		MemBound: longest, Binding: longest, Crossover: true,
		Grid:     &GridRef{math.MinInt64, math.MinInt64, math.MinInt64},
		CommCost: longest, MemoryCost: longest, Time: longest, Words: longest, Speedup: longest,
		Efficiency: longest, Slowdown: longest,
	}
	checkAppendJSON(t, worst)
	if b, _ := worst.AppendJSON(nil); len(b) != MaxPointJSON {
		t.Errorf("the longest point takes %d bytes, MaxPointJSON says %d", len(b), MaxPointJSON)
	}
}

// FuzzPointAppendJSON holds AppendJSON to encoding/json over arbitrary
// field values. Seeds: zero omitempty fields, a nil grid, crossover set,
// -0, the smallest subnormal, both sides of the 'e' cutoffs, NaN and ±Inf.
func FuzzPointAppendJSON(f *testing.F) {
	f.Add(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, false, false, false, false, false, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(100000, 3, 3.0, 5571.3, 5500.0, 1234.5, 5571.3, false, true, true, false, true, 40, 50, 50,
		5451.0, 5571.0, 5451.0, 5451.0, 1.5e-3, 2.5e-8, 1.0)
	f.Add(-1, 2, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99999e-7, true, true, false, true, true, 1, 2, 3,
		1e21, 9.999999999999999e20, -1e-7, 1e-300, -0.0, 123456789.125, 1e308)
	f.Add(7, 1, math.NaN(), 1.0, 1.0, 1.0, 1.0, false, false, true, false, false, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(7, 1, 1.0, 1.0, 1.0, 1.0, 1.0, false, false, true, false, true, 1, 1, 7, math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(7, 1, 1.0, 1.0, 1.0, 1.0, 1.0, false, false, true, false, true, 1, 1, 7, 1.0, 1.0, math.Inf(-1), 0.0, 0.0, 0.0, math.NaN())
	f.Fuzz(func(t *testing.T, p, c int, tight, bound, lead, memBound, binding float64,
		md, crossover, fits, perfect, hasGrid bool, p1, p2, p3 int,
		comm, memCost, tm, words, speedup, eff, slow float64) {
		pt := Point{
			P: p, Case: c, TightConstant: tight, Bound: bound, LeadingTerm: lead, MemBound: memBound,
			Binding: binding, MemoryDependent: md, Crossover: crossover, Fits: fits, PerfectScaling: perfect,
			CommCost: comm, MemoryCost: memCost, Time: tm, Words: words, Speedup: speedup, Efficiency: eff,
			Slowdown: slow,
		}
		if hasGrid {
			pt.Grid = &GridRef{p1, p2, p3}
		}
		checkAppendJSON(t, pt)
	})
}
