package crf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/tagger"
)

// objective evaluates the smooth part of the training objective (negative
// log-likelihood plus L2) at theta, writes its gradient into grad, and
// returns the loss value. A non-nil error (a cancellation or injected fault
// observed inside the parallel gradient evaluation) aborts optimisation and
// is returned verbatim by optimize.
type objective func(theta, grad []float64) (float64, error)

// optimize minimises smooth(θ) + l1·‖θ‖₁ in place using OWL-QN
// (Andrew & Gao, 2007), which reduces to plain L-BFGS when l1 == 0. This is
// the algorithm CRFsuite runs for its default "lbfgs with L1+L2" training
// that the paper uses.
//
// ctx (which may be nil) is checked between optimiser iterations so a long
// training run can be cancelled; the context error is returned verbatim.
// Every objective evaluation is guarded against NaN/Inf: on divergence
// optimize aborts with an error wrapping tagger.ErrDiverged, leaving theta
// at the last finite point so no garbage weights escape.
//
// trace, when non-nil, is invoked once per accepted optimiser iteration with
// the full regularised loss, the pseudo-gradient norm at the step's start,
// and the number of line-search evaluations the step cost — the training
// trajectory the observability layer records.
func optimize(ctx context.Context, theta []float64, l1 float64, maxIter int, fn objective, trace func(iter int, loss, gnorm float64, evals int)) error {
	const (
		history = 6
		armijo  = 1e-4
		ftol    = 1e-6
	)
	n := len(theta)
	grad := make([]float64, n)
	pg := make([]float64, n)   // pseudo-gradient
	dir := make([]float64, n)  // search direction
	newX := make([]float64, n) // line-search trial point
	newGrad := make([]float64, n)
	orth := make([]float64, n) // chosen orthant

	var sList, yList [][]float64
	var rhoList []float64

	loss, err := fn(theta, grad)
	if err != nil {
		return err
	}
	if !isFinite(loss) {
		return divergedErr(loss)
	}
	fullLoss := loss + l1*l1Norm(theta)

	for iter := 0; iter < maxIter; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pseudoGradient(pg, theta, grad, l1)
		gnorm := mat.Norm2Vec(pg)
		if gnorm < 1e-8 {
			break
		}
		// Two-loop recursion: dir = -H·pg.
		copy(dir, pg)
		alphas := make([]float64, len(sList))
		for i := len(sList) - 1; i >= 0; i-- {
			alphas[i] = rhoList[i] * mat.Dot(sList[i], dir)
			mat.Axpy(-alphas[i], yList[i], dir)
		}
		if len(sList) > 0 {
			last := len(sList) - 1
			scale := mat.Dot(sList[last], yList[last]) / mat.Dot(yList[last], yList[last])
			mat.ScaleVec(scale, dir)
		}
		for i := 0; i < len(sList); i++ {
			beta := rhoList[i] * mat.Dot(yList[i], dir)
			mat.Axpy(alphas[i]-beta, sList[i], dir)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Project the direction into the descent orthant of -pg.
		if l1 > 0 {
			for i := range dir {
				if dir[i]*pg[i] > 0 {
					dir[i] = 0
				}
			}
		}
		// Choose the orthant for the trial points.
		for i := range orth {
			if theta[i] != 0 {
				orth[i] = sign(theta[i])
			} else {
				orth[i] = -sign(pg[i])
			}
		}

		// Backtracking line search with orthant projection.
		step := 1.0
		if iter == 0 {
			step = 1 / gnorm
		}
		var newLoss, newFull float64
		ok := false
		evals := 0
		for ls := 0; ls < 30; ls++ {
			evals++
			for i := range newX {
				v := theta[i] + step*dir[i]
				if l1 > 0 && v*orth[i] < 0 {
					v = 0
				}
				newX[i] = v
			}
			var err error
			newLoss, err = fn(newX, newGrad)
			if err != nil {
				return err
			}
			if !isFinite(newLoss) {
				// The line search has wandered into a region where the
				// objective overflows (or the loss was poisoned). theta still
				// holds the last accepted finite point; abort rather than
				// keep halving against garbage.
				return divergedErr(newLoss)
			}
			newFull = newLoss + l1*l1Norm(newX)
			// Armijo condition on the directional derivative of the full
			// objective, measured with the pseudo-gradient.
			var dgain float64
			for i := range newX {
				dgain += pg[i] * (newX[i] - theta[i])
			}
			if newFull <= fullLoss+armijo*dgain || newFull < fullLoss-1e-12 {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			break
		}
		// Update L-BFGS history with smooth-gradient differences.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = newX[i] - theta[i]
			y[i] = newGrad[i] - grad[i]
		}
		if sy := mat.Dot(s, y); sy > 1e-10 {
			sList = append(sList, s)
			yList = append(yList, y)
			rhoList = append(rhoList, 1/sy)
			if len(sList) > history {
				sList = sList[1:]
				yList = yList[1:]
				rhoList = rhoList[1:]
			}
		}
		copy(theta, newX)
		copy(grad, newGrad)
		prevFull := fullLoss
		loss = newLoss
		fullLoss = newFull
		if trace != nil {
			trace(iter, fullLoss, gnorm, evals)
		}
		if math.Abs(prevFull-fullLoss) <= ftol*(math.Abs(prevFull)+1) {
			break
		}
	}
	_ = loss
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func divergedErr(loss float64) error {
	return fmt.Errorf("crf: objective = %v: %w", loss, tagger.ErrDiverged)
}

// pseudoGradient computes the OWL-QN pseudo-gradient of smooth+l1·‖·‖₁.
func pseudoGradient(pg, theta, grad []float64, l1 float64) {
	if l1 == 0 {
		copy(pg, grad)
		return
	}
	for i := range theta {
		switch {
		case theta[i] > 0:
			pg[i] = grad[i] + l1
		case theta[i] < 0:
			pg[i] = grad[i] - l1
		default:
			switch {
			case grad[i]+l1 < 0:
				pg[i] = grad[i] + l1
			case grad[i]-l1 > 0:
				pg[i] = grad[i] - l1
			default:
				pg[i] = 0
			}
		}
	}
}

func l1Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
