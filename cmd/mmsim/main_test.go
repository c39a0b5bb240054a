package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/topo"
)

// TestFlagParsing table-drives parseFlags + resolve: every registry
// algorithm resolves case-insensitively, unknown names fail listing the
// valid ones, and the topology flags produce typed taxonomy errors.
func TestFlagParsing(t *testing.T) {
	small := []string{"-n1", "16", "-n2", "16", "-n3", "16", "-p", "4"}
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
				if s.opts.Topo != nil {
					t.Fatalf("default run got a topology: %v", s.opts.Topo)
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
			args: []string{"-n1", "64", "-n2", "64", "-n3", "64", "-p", "64", "-topo", "torus=4x4x4", "-place", "roundrobin"},
			check: func(t *testing.T, s runSpec) {
				if s.opts.Topo == nil || s.opts.Topo.Name() != "torus=4x4x4" {
					t.Fatalf("topo = %v", s.opts.Topo)
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
			name:    "bad dims",
			args:    []string{"-n1", "0"},
			wantErr: core.ErrBadDims,
		},
		{
			name:    "bad processor count",
			args:    []string{"-p", "0"},
			wantErr: core.ErrBadProcessorCount,
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
			errHas:  "single algorithm",
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
			args:    []string{"-traffic", "-n1", "256", "-n2", "256", "-n3", "256", "-p", "65536"},
			wantErr: core.ErrBadOpts,
			errHas:  "4096",
		},
		{
			name: "traffic at the P limit",
			args: []string{"-traffic", "-n1", "64", "-n2", "64", "-n3", "64", "-p", "4096"},
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
	if _, err := parseFlags([]string{"-p", "not-a-number"}, &buf); err == nil {
		t.Fatal("bad -p value parsed")
	}
	if _, err := parseFlags([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("unknown flag parsed")
	}
}

// TestRunTopologySmoke runs the resolved pipeline in-process on a small
// problem with and without a fabric: same words, longer critical path, both
// verified, exit code 0.
func TestRunTopologySmoke(t *testing.T) {
	args := []string{"-alg", "Alg1", "-n1", "32", "-n2", "32", "-n3", "32", "-p", "8", "-alpha", "2", "-beta", "1"}
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
		cfg, err := parseFlags([]string{"-alg", name, "-n1", "16", "-n2", "16", "-n3", "16", "-p", "4", "-traffic"}, io.Discard)
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
