package parmm

import (
	"context"
	"errors"
	"testing"
)

// TestErrorTaxonomy pins the v1 contract: every rejection from the public
// API wraps one of the exported sentinels, so callers dispatch with
// errors.Is instead of string matching. Each entry exercises one former
// string-error site.
func TestErrorTaxonomy(t *testing.T) {
	bw := Opts{Config: BandwidthOnly()}
	rec := Opts{Config: BandwidthOnly(), Collective: CollectiveRecursive}
	sq := func(n int, seed uint64) *Matrix { return RandomMatrix(n, n, seed) }
	cases := []struct {
		name string
		want error
		run  func() error
	}{
		{"CaseGrid non-conforming", ErrGridMismatch, func() error {
			_, err := CaseGrid(NewDims(1000, 999, 998), 7)
			return err
		}},
		{"Alg1 wrong grid size", ErrGridMismatch, func() error {
			_, err := Alg1(sq(8, 1), sq(8, 2), 4, Opts{Config: BandwidthOnly(), Grid: Grid{P1: 3, P2: 1, P3: 1}})
			return err
		}},
		{"Alg1 grid exceeds dims", ErrGridMismatch, func() error {
			_, err := Alg1(RandomMatrix(2, 8, 1), RandomMatrix(8, 8, 2), 4, Opts{Config: BandwidthOnly(), Grid: Grid{P1: 4, P2: 1, P3: 1}})
			return err
		}},
		{"Alg1 inner dims disagree", ErrBadDims, func() error {
			_, err := Alg1(RandomMatrix(4, 5, 1), RandomMatrix(6, 4, 2), 2, bw)
			return err
		}},
		{"OneD too many processors", ErrBadProcessorCount, func() error {
			_, err := OneD(sq(4, 1), sq(4, 2), 8, bw)
			return err
		}},
		{"SUMMA indivisible steps", ErrGridMismatch, func() error {
			_, err := SUMMA(RandomMatrix(6, 5, 1), RandomMatrix(5, 6, 2), 4, bw)
			return err
		}},
		{"Cannon non-square P", ErrBadProcessorCount, func() error {
			_, err := Cannon(sq(8, 1), sq(8, 2), 6, bw)
			return err
		}},
		{"Cannon indivisible dims", ErrGridMismatch, func() error {
			_, err := Cannon(sq(5, 1), sq(5, 2), 4, bw)
			return err
		}},
		{"CARMA non-power-of-two P", ErrBadProcessorCount, func() error {
			_, err := CARMA(sq(8, 1), sq(8, 2), 6, bw)
			return err
		}},
		{"TwoPointFiveD non-square dims", ErrBadDims, func() error {
			_, err := TwoPointFiveD(RandomMatrix(4, 8, 1), RandomMatrix(8, 4, 2), 4, bw)
			return err
		}},
		{"TwoPointFiveD P not q^2·c", ErrBadProcessorCount, func() error {
			_, err := TwoPointFiveD(sq(12, 1), sq(12, 2), 6, bw)
			return err
		}},
		{"Alg1LowMem zero chunks", ErrBadOpts, func() error {
			_, err := Alg1LowMem(sq(8, 1), sq(8, 2), 4, 0, bw)
			return err
		}},
		// Forced recursive collectives need power-of-two groups: at P = 6
		// the 3D algorithms' grids have a fiber of 3, OneD gathers over all
		// 6 ranks, and 2.5D at P = 27 reduces over c = 3 layers.
		{"Alg1 recursive collective on a group of 3", ErrBadOpts, func() error {
			_, err := Alg1(sq(12, 1), sq(12, 2), 6, rec)
			return err
		}},
		{"AllToAll3D recursive collective on a group of 3", ErrBadOpts, func() error {
			_, err := AllToAll3D(sq(12, 1), sq(12, 2), 6, rec)
			return err
		}},
		{"Alg1LowMem recursive collective on a group of 3", ErrBadOpts, func() error {
			_, err := Alg1LowMem(sq(12, 1), sq(12, 2), 6, 2, rec)
			return err
		}},
		{"OneD recursive collective on a group of 6", ErrBadOpts, func() error {
			_, err := OneD(sq(12, 1), sq(12, 2), 6, rec)
			return err
		}},
		{"TwoPointFiveD recursive collective on 3 layers", ErrBadOpts, func() error {
			_, err := TwoPointFiveD(sq(9, 1), sq(9, 2), 27, Opts{Config: BandwidthOnly(), Collective: CollectiveRecursive, Layers: 3})
			return err
		}},
		{"CAPS non-square dims", ErrBadDims, func() error {
			_, err := CAPS(RandomMatrix(4, 8, 1), RandomMatrix(8, 4, 2), 1, BandwidthOnly())
			return err
		}},
		{"CAPS negative levels", ErrBadProcessorCount, func() error {
			_, err := CAPS(sq(8, 1), sq(8, 2), -1, BandwidthOnly())
			return err
		}},
		{"CAPS indivisible dims", ErrGridMismatch, func() error {
			_, err := CAPS(sq(6, 1), sq(6, 2), 2, BandwidthOnly())
			return err
		}},
		{"NewCuboidProblem zero dim", ErrBadDims, func() error {
			_, err := NewCuboidProblem(0, 3, 3)
			return err
		}},
		{"NewCuboidProblem one dim", ErrBadDims, func() error {
			_, err := NewCuboidProblem(5)
			return err
		}},
		{"Opts negative layers", ErrBadOpts, func() error {
			return Opts{Layers: -1}.Validate()
		}},
		{"Opts bad pinned grid", ErrGridMismatch, func() error {
			return Opts{Grid: Grid{P1: -1, P2: 2, P3: 2}}.Validate()
		}},
	}
	// Every algorithm refuses the options Opts.Validate refuses, on an
	// 8×8 product at P = 4 that each of them runs with valid options.
	runners := []struct {
		name string
		run  func(a, b *Matrix, p int, opts Opts) (*Result, error)
	}{
		{"Alg1", Alg1}, {"AllToAll3D", AllToAll3D}, {"CARMA", CARMA},
		{"Alg1LowMem", func(a, b *Matrix, p int, opts Opts) (*Result, error) { return Alg1LowMem(a, b, p, 4, opts) }},
		{"OneD", OneD}, {"SUMMA", SUMMA}, {"Cannon", Cannon}, {"TwoPointFiveD", TwoPointFiveD},
	}
	probes := []struct {
		name string
		want error
		opts Opts
	}{
		{"unknown collective family", ErrBadOpts, Opts{Config: BandwidthOnly(), Collective: Collective(9)}},
		{"unknown placement without a topology", ErrBadTopology, Opts{Config: BandwidthOnly(), Place: Placement(7)}},
		{"negative layers", ErrBadOpts, Opts{Config: BandwidthOnly(), Layers: -1}},
	}
	for _, r := range runners {
		for _, pr := range probes {
			cases = append(cases, struct {
				name string
				want error
				run  func() error
			}{r.name + " " + pr.name, pr.want, func() error {
				_, err := r.run(sq(8, 1), sq(8, 2), 4, pr.opts)
				return err
			}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
		})
	}
}

// TestRunAllExperimentsContextCancelled: a cancelled context stops the
// suite before any heavy work and surfaces the context's own error.
func TestRunAllExperimentsContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arts, err := RunAllExperimentsContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(arts) != 0 {
		t.Fatalf("cancelled run produced %d artifacts", len(arts))
	}
}
