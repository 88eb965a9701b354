package crf

import "math"

// encodedSeq is a sequence pre-interned for training/inference: feature ids
// per position and (for training data) gold label ids.
type encodedSeq struct {
	feats  [][]int
	labels []int
}

// fb holds the scaled forward–backward workspace for one sequence. Buffers
// are reused across sequences to keep the training loop allocation-free
// after warm-up.
//
// Scaling follows Rabiner: alphaHat rows are normalised to sum 1 with scale
// factors c_t, betaHat is divided by the same factors, so that the state
// marginal is alphaHat*betaHat and the edge marginal carries an extra
// 1/c_{t+1}.
type fb struct {
	L       int
	alpha   []float64 // n*L, scaled forward
	beta    []float64 // n*L, scaled backward
	scale   []float64 // n, the c_t factors
	scores  []float64 // n*L, raw emission scores
	emitExp []float64 // n*L, exp(emission - rowmax)
	emitMax []float64 // n, per-position emission max (for logZ)
	logZ    float64
}

func newFB(L int) *fb { return &fb{L: L} }

func (f *fb) resize(n int) {
	need := n * f.L
	if cap(f.alpha) < need {
		f.alpha = make([]float64, need)
		f.beta = make([]float64, need)
		f.scores = make([]float64, need)
		f.emitExp = make([]float64, need)
	}
	f.alpha = f.alpha[:need]
	f.beta = f.beta[:need]
	f.scores = f.scores[:need]
	f.emitExp = f.emitExp[:need]
	if cap(f.scale) < n {
		f.scale = make([]float64, n)
		f.emitMax = make([]float64, n)
	}
	f.scale = f.scale[:n]
	f.emitMax = f.emitMax[:n]
}

// expTrans returns exp of every transition weight of m, in m.trans's
// (L+1)·L layout, reusing dst's storage when it is large enough. The weights
// are fixed for a whole objective evaluation (and for a served model's
// lifetime), so callers compute the table once and share it read-only.
func (m *Model) expTrans(dst []float64) []float64 {
	if cap(dst) < len(m.trans) {
		dst = make([]float64, len(m.trans))
	}
	dst = dst[:len(m.trans)]
	for i, w := range m.trans {
		dst[i] = math.Exp(w)
	}
	return dst
}

// run executes scaled forward–backward over the first n positions of enc and
// stores the raw emission scores, alpha, beta, scale and logZ. transExp is
// m.expTrans's table for m's current weights.
func (f *fb) run(m *Model, transExp []float64, enc *encodedSeq, n int) {
	L := f.L
	f.resize(n)
	// Emission potentials with per-position max subtraction for stability.
	for t := 0; t < n; t++ {
		scores := f.scores[t*L : (t+1)*L]
		m.emissionScores(scores, enc.feats[t])
		maxS := scores[0]
		for _, s := range scores[1:] {
			if s > maxS {
				maxS = s
			}
		}
		f.emitMax[t] = maxS
		row := f.emitExp[t*L : (t+1)*L]
		for y, s := range scores {
			row[y] = math.Exp(s - maxS)
		}
	}
	// Forward.
	bos := transExp[L*L:]
	var logZ float64
	a0 := f.alpha[:L]
	var c float64
	for y := 0; y < L; y++ {
		a0[y] = f.emitExp[y] * bos[y]
		c += a0[y]
	}
	if c == 0 {
		c = 1e-300
	}
	inv := 1 / c
	for y := range a0 {
		a0[y] *= inv
	}
	f.scale[0] = c
	logZ = math.Log(c) + f.emitMax[0]
	for t := 1; t < n; t++ {
		prev := f.alpha[(t-1)*L : t*L]
		cur := f.alpha[t*L : (t+1)*L]
		emit := f.emitExp[t*L : (t+1)*L]
		for y := 0; y < L; y++ {
			cur[y] = 0
		}
		for p := 0; p < L; p++ {
			ap := prev[p]
			if ap == 0 {
				continue
			}
			trow := transExp[p*L : (p+1)*L]
			for y := 0; y < L; y++ {
				cur[y] += ap * trow[y]
			}
		}
		c = 0
		for y := 0; y < L; y++ {
			cur[y] *= emit[y]
			c += cur[y]
		}
		if c == 0 {
			c = 1e-300
		}
		inv = 1 / c
		for y := range cur {
			cur[y] *= inv
		}
		f.scale[t] = c
		logZ += math.Log(c) + f.emitMax[t]
	}
	f.logZ = logZ
	// Backward.
	last := f.beta[(n-1)*L : n*L]
	for y := range last {
		last[y] = 1
	}
	for t := n - 2; t >= 0; t-- {
		next := f.beta[(t+1)*L : (t+2)*L]
		cur := f.beta[t*L : (t+1)*L]
		emitNext := f.emitExp[(t+1)*L : (t+2)*L]
		cNext := f.scale[t+1]
		for y := 0; y < L; y++ {
			trow := transExp[y*L : (y+1)*L]
			var s float64
			for q := 0; q < L; q++ {
				s += trow[q] * emitNext[q] * next[q]
			}
			cur[y] = s / cNext
		}
	}
}
