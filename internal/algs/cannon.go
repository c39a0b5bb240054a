package algs

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Cannon runs Cannon's algorithm on a q×q processor grid (P = q²): after an
// initial skew that aligns A(i, i+j) and B(i+j, j) on processor (i, j), the
// grid performs q−1 rounds of multiply-then-shift (A one step left, B one
// step up). It requires a square processor grid and dimensions divisible by
// q; the 2D baseline for the comparison experiments.
func Cannon(a, b *matrix.Dense, p int, opts Opts) (*Result, error) {
	d, err := dimsOf(a, b, p, opts)
	if err != nil {
		return nil, err
	}
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		return nil, fmt.Errorf("algs: Cannon needs a square processor count, got %d: %w", p, core.ErrBadProcessorCount)
	}
	if d.N1%q != 0 || d.N2%q != 0 || d.N3%q != 0 {
		return nil, fmt.Errorf("algs: Cannon needs dims %v divisible by q=%d: %w", d, q, core.ErrGridMismatch)
	}

	g := grid.Grid{P1: q, P2: 1, P3: q}
	const (
		tagSkewA  = 100
		tagSkewB  = 101
		tagShiftA = 102
		tagShiftB = 103
	)
	return run("Cannon", d, g, opts, func(r *machine.Rank) []float64 {
		i, _, j := g.Coords(r.ID())
		// Each block lives packed in one pooled buffer, which the skew and
		// the shifts overwrite in place and the multiply reads wrapped.
		aView := matrix.BlockView(a, q, q, i, j)
		bView := matrix.BlockView(b, q, q, i, j)
		aBuf := aView.PackInto(r.GetBuffer(aView.Size()))
		bBuf := bView.PackInto(r.GetBuffer(bView.Size()))
		aBlk := matrix.Wrap(aView.Rows(), aView.Cols(), aBuf)
		bBlk := matrix.Wrap(bView.Rows(), bView.Cols(), bBuf)
		r.GrowMemory(float64(2 * (aBlk.Size() + bBlk.Size()))) // blocks + shift buffers
		myC := make([]float64, (d.N1/q)*(d.N3/q))
		cBlk := matrix.Wrap(d.N1/q, d.N3/q, myC)
		r.GrowMemory(float64(cBlk.Size()))

		// Initial skew: processor (i, j) must hold A(i, (j+i) mod q) and
		// B((i+j) mod q, j). Each processor sends its canonical block to
		// the peer that needs it and receives its aligned block.
		if q > 1 && i != 0 {
			dst := g.Rank(i, 0, (j-i+q)%q) // A(i,j) is needed at column j-i
			src := g.Rank(i, 0, (j+i)%q)
			exchangeBlock(r, dst, src, tagSkewA, aBuf)
		}
		if q > 1 && j != 0 {
			dst := g.Rank((i-j+q)%q, 0, j) // B(i,j) is needed at row i-j
			src := g.Rank((i+j)%q, 0, j)
			exchangeBlock(r, dst, src, tagSkewB, bBuf)
		}

		for s := 0; s < q; s++ {
			localMulAdd(r, &cBlk, &aBlk, &bBlk)
			if s == q-1 {
				break
			}
			// Shift A one step left (receive from the right), B one step
			// up (receive from below).
			leftRank := g.Rank(i, 0, (j-1+q)%q)
			rightRank := g.Rank(i, 0, (j+1)%q)
			exchangeBlock(r, leftRank, rightRank, tagShiftA, aBuf)
			upRank := g.Rank((i-1+q)%q, 0, j)
			downRank := g.Rank((i+1)%q, 0, j)
			exchangeBlock(r, upRank, downRank, tagShiftB, bBuf)
		}
		r.PutBuffer(aBuf)
		r.PutBuffer(bBuf)
		return myC
	})
}

// exchangeBlock sends the packed block buf to dst and overwrites it with the
// block received from src, which has the same shape. Sending from buf and
// receiving back into it is safe because Send copies the payload into the
// network before the receive overwrites buf. When both peers are this rank
// (shift distance 0 in a degenerate grid) the block is left unchanged.
func exchangeBlock(r *machine.Rank, dst, src, tag int, buf []float64) {
	if dst == r.ID() && src == r.ID() {
		return
	}
	r.SendRecvInto(dst, src, tag, buf, buf)
}
