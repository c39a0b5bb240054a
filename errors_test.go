package parmm

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestErrorTaxonomy pins the v1 contract: every rejection from the public
// API wraps one of the exported sentinels, so callers dispatch with
// errors.Is instead of string matching. Each entry exercises one former
// string-error site.
func TestErrorTaxonomy(t *testing.T) {
	bw := Opts{Config: BandwidthOnly()}
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
		{"Opts negative layers", ErrBadOpts, func() error {
			return Opts{Layers: -1}.Validate()
		}},
		{"Opts bad pinned grid", ErrGridMismatch, func() error {
			return NewOpts(WithGrid(Grid{P1: -1, P2: 2, P3: 2})).Validate()
		}},
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

// TestFunctionalOptions: NewOpts with the With* options must build the same
// Opts as the low-level struct literal, and the two paths must drive the
// simulator to bit-identical costs.
func TestFunctionalOptions(t *testing.T) {
	d := NewDims(768, 192, 48)
	p := 512
	g, err := CaseGrid(d, p)
	if err != nil {
		t.Fatal(err)
	}
	built := NewOpts(
		WithConfig(BandwidthOnly()),
		WithGrid(g),
		WithCollective(CollectiveRing),
		WithTrace(),
		WithTraffic(),
	)
	literal := Opts{
		Config:     BandwidthOnly(),
		Grid:       g,
		Collective: CollectiveRing,
		Trace:      true,
		Traffic:    true,
	}
	if built != literal {
		t.Fatalf("NewOpts built %+v, struct literal %+v", built, literal)
	}
	if err := built.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if o := NewOpts(WithLayers(3)); o.Layers != 3 {
		t.Fatalf("WithLayers: %+v", o)
	}

	a := RandomMatrix(768, 192, 1)
	b := RandomMatrix(192, 48, 2)
	r1, err := Alg1(a, b, p, built)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Alg1(a, b, p, literal)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CommCost() != r2.CommCost() {
		t.Fatalf("option-built run cost %v, struct-built %v", r1.CommCost(), r2.CommCost())
	}
	if math.IsNaN(r1.CommCost()) || r1.CommCost() <= 0 {
		t.Fatalf("degenerate cost %v", r1.CommCost())
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
