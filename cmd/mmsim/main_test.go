package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// TestFlagParsing table-drives parseFlags + resolve: every registry
// algorithm resolves case-insensitively, unknown names fail listing the
// valid ones, and the topology flags produce typed taxonomy errors.
func TestFlagParsing(t *testing.T) {
	small := []string{"-dims", "16x16x16", "-p", "4"}
	cases := []struct {
		name    string
		args    []string
		wantErr error  // sentinel the resolve error must wrap (nil = success)
		errHas  string // substring the error message must contain
		check   func(t *testing.T, s runSpec)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, s runSpec) {
				if len(s.entries) != 1 || s.entries[0].Name != "Alg1" {
					t.Fatalf("entries = %+v", s.entries)
				}
				if s.fabrics != nil {
					t.Fatalf("default run got a topology: %v", s.fabrics)
				}
			},
		},
		{
			name: "all algorithms",
			args: append([]string{"-alg", "all"}, small...),
			check: func(t *testing.T, s runSpec) {
				if len(s.entries) != len(algs.Registry()) {
					t.Fatalf("got %d entries, want the full registry (%d)", len(s.entries), len(algs.Registry()))
				}
			},
		},
		{
			name: "case insensitive alg",
			args: append([]string{"-alg", "cannon"}, small...),
			check: func(t *testing.T, s runSpec) {
				if len(s.entries) != 1 || s.entries[0].Name != "Cannon" {
					t.Fatalf("entries = %+v", s.entries)
				}
			},
		},
		{
			name:    "unknown alg lists registry",
			args:    append([]string{"-alg", "Strassen9000"}, small...),
			wantErr: core.ErrUnsupportedAlg,
			errHas:  "Alg1",
		},
		{
			name: "topology and placement",
			args: []string{"-dims", "64x64x64", "-p", "64", "-topo", "torus=4x4x4", "-place", "roundrobin"},
			check: func(t *testing.T, s runSpec) {
				if len(s.fabrics) != 1 || s.fabrics[0].Name() != "torus=4x4x4" {
					t.Fatalf("fabrics = %v", s.fabrics)
				}
				if s.opts.Place != topo.RoundRobin {
					t.Fatalf("place = %v", s.opts.Place)
				}
			},
		},
		{
			name:    "unknown topology lists kinds",
			args:    append([]string{"-topo", "hypercube=2"}, small...),
			wantErr: core.ErrBadTopology,
			errHas:  "torus=",
		},
		{
			name:    "topology size mismatch",
			args:    append([]string{"-topo", "torus=4x4"}, small...),
			wantErr: core.ErrBadTopology,
		},
		{
			name:    "unknown placement",
			args:    append([]string{"-topo", "flat", "-place", "zigzag"}, small...),
			wantErr: core.ErrBadTopology,
		},
		{
			name:    "placement without topology still validated",
			args:    append([]string{"-place", "zigzag"}, small...),
			wantErr: core.ErrBadTopology,
		},
		{
			name:    "topology that does not fit every P",
			args:    []string{"-dims", "16x16x16", "-p", "4,8", "-topo", "torus=2x2"},
			wantErr: core.ErrBadTopology,
			errHas:  "8 ranks",
		},
		{
			name:    "bad dims",
			args:    []string{"-dims", "0x16x16"},
			wantErr: core.ErrBadDims,
		},
		{
			name:    "bad processor count",
			args:    []string{"-p", "0"},
			wantErr: core.ErrBadProcessorCount,
		},
		{
			name:    "bad processor count in a list",
			args:    []string{"-p", "4,0"},
			wantErr: core.ErrBadProcessorCount,
		},
		{
			name: "shapes, processor counts and algorithms in order",
			args: []string{"-dims", "16x16x16, 32x8x4", "-p", "8,1", "-alg", "SUMMA,alg1"},
			check: func(t *testing.T, s runSpec) {
				if want := []core.Dims{core.Square(16), core.NewDims(32, 8, 4)}; !slices.Equal(s.shapes, want) {
					t.Fatalf("shapes = %v, want %v", s.shapes, want)
				}
				if !slices.Equal(s.procs, []int{8, 1}) {
					t.Fatalf("procs = %v", s.procs)
				}
				if len(s.entries) != 2 || s.entries[0].Name != "SUMMA" || s.entries[1].Name != "Alg1" {
					t.Fatalf("entries = %+v", s.entries)
				}
			},
		},
		{
			name:    "negative beta",
			args:    append([]string{"-beta", "-1"}, small...),
			wantErr: core.ErrBadOpts,
			errHas:  "β=-1",
		},
		{
			name:    "NaN beta",
			args:    append([]string{"-beta", "NaN"}, small...),
			wantErr: core.ErrBadOpts,
		},
		{
			name:    "infinite beta",
			args:    append([]string{"-beta", "Inf"}, small...),
			wantErr: core.ErrBadOpts,
		},
		{
			name: "zero costs",
			args: append([]string{"-alpha", "0", "-beta", "0", "-gamma", "0"}, small...),
		},
		{
			name:    "trace with all algorithms",
			args:    append([]string{"-alg", "all", "-trace", "t.json"}, small...),
			wantErr: core.ErrBadOpts,
			errHas:  "single run",
		},
		{
			name:    "trace over two processor counts",
			args:    []string{"-trace", "t.json", "-p", "4,8"},
			wantErr: core.ErrBadOpts,
			errHas:  "single run",
		},
		{
			name:    "traffic beside CSV",
			args:    append([]string{"-traffic", "-csv"}, small...),
			wantErr: core.ErrBadOpts,
		},
		{
			name:    "timeline with all algorithms",
			args:    append([]string{"-alg", "all", "-timeline"}, small...),
			wantErr: core.ErrBadOpts,
		},
		{
			name:    "traffic with all algorithms",
			args:    append([]string{"-alg", "all", "-traffic"}, small...),
			wantErr: core.ErrBadOpts,
		},
		{
			name:    "traffic past the P limit",
			args:    []string{"-traffic", "-dims", "256x256x256", "-p", "65536"},
			wantErr: core.ErrBadOpts,
			errHas:  "4096",
		},
		{
			name: "traffic at the P limit",
			args: []string{"-traffic", "-dims", "64x64x64", "-p", "4096"},
			check: func(t *testing.T, s runSpec) {
				if !s.traffic || !s.opts.Trace {
					t.Fatalf("traffic not recorded: %+v", s.opts)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if err != nil {
				t.Fatalf("parseFlags: %v", err)
			}
			s, err := resolve(cfg)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("resolve err = %v, want %v", err, tc.wantErr)
				}
				if tc.errHas != "" && !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("error %q does not mention %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// TestFlagSyntaxError checks malformed flags surface as parse errors (main
// then exits 2) instead of panicking or exiting from inside the parser.
func TestFlagSyntaxError(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags([]string{"-layers", "not-a-number"}, &buf); err == nil {
		t.Fatal("bad -layers value parsed")
	}
	if _, err := parseFlags([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("unknown flag parsed")
	}
}

// TestRunTopologySmoke runs the resolved pipeline in-process on a small
// problem with and without a fabric: same words, longer critical path, both
// verified, exit code 0.
func TestRunTopologySmoke(t *testing.T) {
	args := []string{"-alg", "Alg1", "-dims", "32x32x32", "-p", "8", "-alpha", "2", "-beta", "1"}
	runOut := func(extra ...string) (string, int) {
		t.Helper()
		cfg, err := parseFlags(append(args, extra...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		s, err := resolve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		code := run(s, &out, &errOut)
		return out.String(), code
	}
	flatOut, code := runOut()
	if code != 0 {
		t.Fatalf("flat run exit %d:\n%s", code, flatOut)
	}
	treeOut, code := runOut("-topo", "tree=2x3")
	if code != 0 {
		t.Fatalf("tree run exit %d:\n%s", code, treeOut)
	}
	if !strings.Contains(treeOut, "topology tree=2x3, placement contiguous") {
		t.Fatalf("tree run does not announce its fabric:\n%s", treeOut)
	}
	if strings.Contains(flatOut, "topology ") {
		t.Fatalf("flat run announces a fabric:\n%s", flatOut)
	}
	if !strings.Contains(flatOut, "true") || !strings.Contains(treeOut, "true") {
		t.Fatalf("verification column missing:\nflat:\n%s\ntree:\n%s", flatOut, treeOut)
	}
}

// TestRunTrafficEveryAlgorithm: -traffic prints the heatmap for each
// registry algorithm, the 2D and 1D ones included.
func TestRunTrafficEveryAlgorithm(t *testing.T) {
	for _, name := range algs.Names() {
		cfg, err := parseFlags([]string{"-alg", name, "-dims", "16x16x16", "-p", "4", "-traffic"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		s, err := resolve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if code := run(s, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d:\n%s%s", name, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "traffic heatmap (4 ranks") || !strings.Contains(out.String(), "active pairs: ") {
			t.Errorf("%s -traffic printed no heatmap:\n%s", name, out.String())
		}
	}
}

// TestParseDimsValidates: parseDims refuses the shapes core.Dims.Validate
// refuses with core.ErrBadDims, among them one whose n1·n2 overflows the
// exact float64 range (matrix.New would panic allocating it), and accepts
// a list of valid shapes in order.
func TestParseDimsValidates(t *testing.T) {
	for _, s := range []string{"3037000500x3037000500x1", "64x0x64", "64x64x64,-1x2x3", "64x64", "64xax64"} {
		if _, err := parseDims(s); !errors.Is(err, core.ErrBadDims) {
			t.Errorf("parseDims(%q) = %v, want core.ErrBadDims", s, err)
		}
	}
	got, err := parseDims("64x64x64, 768x192x48")
	if err != nil {
		t.Fatal(err)
	}
	if want := []core.Dims{core.Square(64), core.NewDims(768, 192, 48)}; !slices.Equal(got, want) {
		t.Fatalf("parseDims = %v, want %v", got, want)
	}
}

// TestParseAlgs: names resolve case-insensitively through algs.Lookup, in
// the order given; "all" gives the registry; an unknown name fails listing
// the valid ones.
func TestParseAlgs(t *testing.T) {
	got, err := parseAlgs("cannon, ALG1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "Cannon" || got[1].Name != "Alg1" {
		t.Fatalf("parseAlgs = %+v", got)
	}
	if all, err := parseAlgs("All"); err != nil || len(all) != len(algs.Registry()) {
		t.Fatalf("parseAlgs(All) = %d entries, %v", len(all), err)
	}
	_, err = parseAlgs("Alg1,Strassen9000")
	if !errors.Is(err, core.ErrUnsupportedAlg) || !strings.Contains(err.Error(), "TwoPointFiveD") {
		t.Fatalf("unknown name = %v, want the valid names listed", err)
	}
}

// runCSV resolves args with -csv added, runs them in-process and returns
// the exit code and the CSV rows after the header.
func runCSV(t *testing.T, args ...string) (int, [][]string) {
	t.Helper()
	cfg, err := parseFlags(append(args, "-csv"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s, err := resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run(s, &out, &errOut)
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out.String())
	}
	return code, rows[1:]
}

// TestRunSweepRows: -alg all over two processor counts prints one row per
// P × algorithm, in that order; Cannon, which refuses P = 8, prints an
// n/a row, every other run verifies, and the exit status is 0.
func TestRunSweepRows(t *testing.T) {
	code, rows := runCSV(t, "-alg", "all", "-dims", "16x16x16", "-p", "1,8")
	names := algs.Names()
	if len(rows) != 2*len(names) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(names))
	}
	for i, r := range rows {
		p, name := []string{"1", "8"}[i/len(names)], names[i%len(names)]
		if r[0] != "16x16x16" || r[1] != p || r[3] != name {
			t.Errorf("row %d = %v, want %s at P = %s", i, r[:4], name, p)
		}
		correct := r[len(r)-1]
		if name == "Cannon" && p == "8" {
			if !strings.HasPrefix(correct, "n/a: ") {
				t.Errorf("Cannon at P = 8: %q, want an n/a row", correct)
			}
		} else if correct != "true" {
			t.Errorf("%s at P = %s: correct = %q", name, p, correct)
		}
	}
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}

// TestRunExitRule: a refusal (an error wrapping a core sentinel) prints an
// n/a row and exits 0, while any other error, such as an aborted
// simulation, and a wrong product exit 1.
func TestRunExitRule(t *testing.T) {
	cfg, err := parseFlags([]string{"-dims", "8x8x8", "-p", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s, err := resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fails := func(err error) algs.Runner {
		return func(a, b *matrix.Dense, p int, opts algs.Opts) (*algs.Result, error) { return nil, err }
	}
	cases := []struct {
		name   string
		run    algs.Runner
		status string
		code   int
	}{
		{"refusal", fails(fmt.Errorf("needs a square P: %w", core.ErrBadProcessorCount)),
			"n/a: needs a square P: invalid processor count", 0},
		{"aborted simulation", fails(errors.New("rank 2: boom")), "rank 2: boom", 1},
		{"wrong product", func(a, b *matrix.Dense, p int, opts algs.Opts) (*algs.Result, error) {
			res, err := algs.Alg1(a, b, p, opts)
			if err == nil {
				res.C.Row(0)[0]++
			}
			return res, err
		}, "false", 1},
	}
	for _, tc := range cases {
		s.entries = []algs.Entry{{Name: tc.name, Run: tc.run}}
		var out, errOut bytes.Buffer
		code := run(s, &out, &errOut)
		if code != tc.code || !strings.Contains(out.String(), tc.status) {
			t.Errorf("%s: exit %d, want %d, with %q in:\n%s", tc.name, code, tc.code, tc.status, out.String())
		}
	}
}
