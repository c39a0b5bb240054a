package benchrec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunTopoScalingSmall runs the topology-scaling recorder at its
// smallest cell size and checks the record carries one sample per fabric
// with sane fields and round-trips through the JSON file format.
func TestRunTopoScalingSmall(t *testing.T) {
	rec, err := RunTopoScaling([]int{64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := TopoFabrics(64)
	if len(rec.Samples) != len(fabrics) {
		t.Fatalf("got %d samples, want %d", len(rec.Samples), len(fabrics))
	}
	for i, s := range rec.Samples {
		if s.Fabric != fabrics[i] || s.P != 64 {
			t.Errorf("sample %d is %s/P=%d, want %s/P=64", i, s.Fabric, s.P, fabrics[i])
		}
		if s.BuildNs <= 0 || s.ChargeNsPerOp <= 0 || s.ChargesPerSec <= 0 {
			t.Errorf("%s: non-positive timings %+v", s.Fabric, s)
		}
		if s.MaxChi < 1 || s.MaxHops < 1 || s.Links <= 0 {
			t.Errorf("%s: bad oracle summary %+v", s.Fabric, s)
		}
	}

	path := filepath.Join(t.TempDir(), "topo.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back TopoRecord
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != "TopoScaling" || len(back.Samples) != len(rec.Samples) {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

// TestRunTopoScalingUnknownP checks unsupported rank counts error instead
// of writing an empty record.
func TestRunTopoScalingUnknownP(t *testing.T) {
	if _, err := RunTopoScaling([]int{7}, nil); err == nil {
		t.Fatal("P=7 should have no fabric specs")
	}
}
