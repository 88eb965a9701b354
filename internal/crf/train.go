package crf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tagger"
)

// Config holds the training hyper-parameters. The defaults mirror the
// paper's setup: CRFsuite's L-BFGS training with elastic-net (L1+L2)
// regularisation, used out of the box.
type Config struct {
	Feature FeatureConfig
	L1      float64 // L1 coefficient (default 0.05)
	L2      float64 // L2 coefficient (default 0.05)
	MaxIter int     // optimiser iterations (default 60)
	// MinFeatCount drops emission features seen fewer times (default 1).
	MinFeatCount int
	// Workers bounds gradient parallelism. Zero means one worker per CPU,
	// capped at gradParts because extra gradient workers would idle; an
	// explicit value is honored unclamped. The trained model is identical
	// for every Workers value: gradient reduction always runs over the
	// fixed gradParts partitions in partition order, so the worker count
	// changes wall-clock only, never floating-point accumulation order.
	Workers int
}

func (c Config) withDefaults() Config {
	c.Feature = c.Feature.withDefaults()
	if c.L1 == 0 {
		c.L1 = 0.05
	}
	if c.L1 < 0 {
		c.L1 = 0
	}
	if c.L2 == 0 {
		c.L2 = 0.05
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 60
	}
	if c.MinFeatCount <= 0 {
		c.MinFeatCount = 1
	}
	if c.Workers <= 0 {
		// Cap only the default: a 32-core machine should not silently lose
		// the knob's documented meaning when the caller sets it explicitly.
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > gradParts {
			c.Workers = gradParts
		}
	}
	return c
}

// Trainer fits CRF models.
type Trainer struct {
	Config Config
	// Ctx, when non-nil, cancels training between optimiser iterations;
	// Fit then returns the context's error. The zero value trains to
	// completion.
	Ctx context.Context
	// Inject is the optional fault-injection hook; it poisons the loss at
	// faultinject.StageCRFLineSearch to exercise the divergence guard. Nil
	// in production.
	Inject *faultinject.Injector
	// Obs, when non-nil, receives the training trajectory: per-OWL-QN-
	// iteration loss and pseudo-gradient norm as series, line-search
	// evaluation counts, and feature/label alphabet sizes as gauges.
	Obs *obs.Recorder
	// ObsScope namespaces this fit's series (e.g. "iter03" when training the
	// third bootstrap cycle's model), so trajectories from successive
	// retrainings stay distinguishable in one report.
	ObsScope string
}

// Fit trains a CRF on the labeled sequences. It returns an error wrapping
// tagger.ErrDegenerateTraining when the training set is empty or contains no
// labeled span at all, because a CRF trained on all-Outside data degenerates
// to a constant tagger and the bootstrap loop should stop rather than
// iterate on it, and an error wrapping tagger.ErrDiverged when optimisation
// hits a NaN/Inf objective.
func (tr Trainer) Fit(train []tagger.Sequence) (tagger.Model, error) {
	cfg := tr.Config.withDefaults()
	if len(train) == 0 {
		return nil, fmt.Errorf("crf: empty training set: %w", tagger.ErrDegenerateTraining)
	}
	m, encoded, err := encodeTraining(train, cfg)
	if err != nil {
		return nil, err
	}
	L := len(m.labels)
	F := len(m.featIdx)
	nParams := F*L + (L+1)*L

	grad := newGradientWorkers(m, encoded, cfg, tr.Ctx, tr.Inject)
	theta := make([]float64, nParams)
	obj := grad.compute
	if tr.Inject != nil {
		inner := obj
		obj = func(theta, g []float64) (float64, error) {
			loss, err := inner(theta, g)
			if tr.Inject.Poison(faultinject.StageCRFLineSearch) {
				return math.NaN(), err
			}
			return loss, err
		}
	}
	scope := tr.ObsScope
	if scope == "" {
		scope = "fit"
	}
	tr.Obs.Set("crf.features", float64(F))
	tr.Obs.Set("crf.labels", float64(L))
	tr.Obs.Set("crf.parameters", float64(nParams))
	var trace func(int, float64, float64, int)
	if tr.Obs != nil {
		trace = func(iter int, loss, gnorm float64, evals int) {
			tr.Obs.SeriesAdd("crf."+scope+".loss", iter, loss)
			tr.Obs.SeriesAdd("crf."+scope+".grad_norm", iter, gnorm)
			tr.Obs.Add("crf.linesearch_evals", int64(evals))
			tr.Obs.Add("crf.optimizer_iterations", 1)
			tr.Obs.Debug("crf optimizer step",
				"scope", scope, "iter", iter, "loss", loss, "grad_norm", gnorm, "evals", evals)
		}
	}
	if err := optimize(tr.Ctx, theta, cfg.L1, cfg.MaxIter, obj, trace); err != nil {
		return nil, err
	}
	m.emit = theta[:F*L]
	m.trans = theta[F*L:]
	// The parallelism knob is a property of the machine that trained, not of
	// the model; drop it so saved artifacts are identical across machines.
	m.cfg.Workers = 0
	return m, nil
}

// encodeTraining builds the label and feature alphabets of train and interns
// every non-empty sequence into feature and label ids. It returns the model
// skeleton those ids index; its weights are unset.
func encodeTraining(train []tagger.Sequence, cfg Config) (*Model, []*encodedSeq, error) {
	labels := tagger.LabelSet(train)
	if len(labels) < 2 {
		return nil, nil, fmt.Errorf("crf: training set has no labeled spans: %w", tagger.ErrDegenerateTraining)
	}
	labelIdx := make(map[string]int, len(labels))
	for i, l := range labels {
		labelIdx[l] = i
	}

	// Build the feature alphabet.
	featCount := make(map[string]int)
	var feats []string
	for _, seq := range train {
		for t := range seq.Tokens {
			feats = appendFeaturesAt(feats[:0], seq, t, cfg.Feature)
			for _, f := range feats {
				featCount[f]++
			}
		}
	}
	kept := make([]string, 0, len(featCount))
	for f, c := range featCount {
		if c >= cfg.MinFeatCount {
			kept = append(kept, f)
		}
	}
	sort.Strings(kept) // deterministic parameter layout across runs
	featIdx := make(map[string]int, len(kept))
	for i, f := range kept {
		featIdx[f] = i
	}

	m := &Model{
		cfg:      cfg,
		labels:   labels,
		labelIdx: labelIdx,
		featIdx:  featIdx,
	}

	// Encode sequences once, through the Decoder path tagging uses; the
	// decoder reuses its row buffers, so each kept row is copied out.
	dec := m.NewDecoder()
	encoded := make([]*encodedSeq, 0, len(train))
	for _, seq := range train {
		n := len(seq.Tokens)
		if n == 0 {
			continue
		}
		enc := &encodedSeq{feats: make([][]int, n), labels: make([]int, n)}
		for t, row := range dec.featureIDs(seq) {
			enc.feats[t] = slices.Clone(row)
		}
		for t, l := range seq.Labels {
			enc.labels[t] = labelIdx[l]
		}
		encoded = append(encoded, enc)
	}
	if len(encoded) == 0 {
		return nil, nil, fmt.Errorf("crf: no non-empty sequences: %w", tagger.ErrDegenerateTraining)
	}
	return m, encoded, nil
}

// gradParts is the fixed number of gradient-reduction partitions. Sequence i
// contributes to partition i mod gradParts; each partition accumulates its
// sequences in index order, and partitions merge into the gradient in
// partition order. The floating-point reduction order therefore depends only
// on the training data — never on Workers or the machine's core count — which
// is what makes CRF training byte-reproducible across parallelism settings.
// Workers beyond gradParts gain nothing here (they still speed up tagging and
// corpus prep); raising the constant trades one dense gradient buffer per
// partition for more headroom.
const gradParts = 8

// gradientWorkers evaluates the smooth part of the objective (NLL + L2) and
// its gradient, parallelised over the fixed reduction partitions.
type gradientWorkers struct {
	m         *Model
	encoded   []*encodedSeq
	empirical []float64
	cfg       Config
	ctx       context.Context
	inject    *faultinject.Injector
	bufs      [][]float64 // one dense gradient buffer per partition
	fbs       []*fb
	losses    []float64
	transExp  []float64 // exp(m.trans) for the evaluation in progress
}

func newGradientWorkers(m *Model, encoded []*encodedSeq, cfg Config, ctx context.Context, inject *faultinject.Injector) *gradientWorkers {
	L := len(m.labels)
	F := len(m.featIdx)
	// Empirical feature counts of the gold paths, the constant part of the
	// gradient.
	empirical := make([]float64, F*L+(L+1)*L)
	for _, enc := range encoded {
		prev := L // BOS
		for t, y := range enc.labels {
			for _, f := range enc.feats[t] {
				empirical[f*L+y]++
			}
			empirical[F*L+prev*L+y]++
			prev = y
		}
	}
	g := &gradientWorkers{m: m, encoded: encoded, empirical: empirical, cfg: cfg, ctx: ctx, inject: inject}
	parts := gradParts
	if len(encoded) < parts {
		parts = len(encoded)
	}
	g.bufs = make([][]float64, parts)
	g.fbs = make([]*fb, parts)
	g.losses = make([]float64, parts)
	for i := 0; i < parts; i++ {
		g.bufs[i] = make([]float64, len(empirical))
		g.fbs[i] = newFB(L)
	}
	return g
}

// compute sets grad to ∇(NLL + λ2/2·‖θ‖²) at theta and returns that loss. It
// returns the context's error when training is cancelled mid-evaluation; a
// panic inside a partition worker is re-panicked here (as *par.WorkerPanic)
// and contained by the pipeline's stage guard.
func (g *gradientWorkers) compute(theta, grad []float64) (float64, error) {
	L := len(g.m.labels)
	F := len(g.m.featIdx)
	g.m.emit = theta[:F*L]
	g.m.trans = theta[F*L:]
	// The transition weights are fixed for this evaluation: exponentiate them
	// once, and every partition reads the same table.
	g.transExp = g.m.expTrans(g.transExp)

	parts := len(g.bufs)
	if err := par.ForEach(g.ctx, g.cfg.Workers, parts, func(p int) error {
		if err := g.inject.Fire(faultinject.StageCRFGrad); err != nil {
			return err
		}
		buf := g.bufs[p]
		for i := range buf {
			buf[i] = 0
		}
		fb := g.fbs[p]
		var loss float64
		for i := p; i < len(g.encoded); i += parts {
			loss += g.sequenceGrad(g.encoded[i], fb, buf)
		}
		g.losses[p] = loss
		return nil
	}); err != nil {
		return 0, err
	}

	var loss float64
	for _, l := range g.losses {
		loss += l
	}
	for i := range grad {
		grad[i] = -g.empirical[i]
	}
	for _, buf := range g.bufs {
		for i, v := range buf {
			grad[i] += v
		}
	}
	// L2 term.
	l2 := g.cfg.L2
	var reg float64
	for i, v := range theta {
		grad[i] += l2 * v
		reg += v * v
	}
	return loss + 0.5*l2*reg, nil
}

// sequenceGrad adds the expected feature counts of one sequence into buf and
// returns its negative log-likelihood contribution (logZ − goldScore).
func (g *gradientWorkers) sequenceGrad(enc *encodedSeq, fb *fb, buf []float64) float64 {
	n := len(enc.feats)
	L := len(g.m.labels)
	F := len(g.m.featIdx)
	fb.run(g.m, g.transExp, enc, n)

	transBase := F * L
	// Expected emission counts via state marginals; BOS transition via the
	// first-position marginal.
	for t := 0; t < n; t++ {
		aRow := fb.alpha[t*L : (t+1)*L]
		bRow := fb.beta[t*L : (t+1)*L]
		for y := 0; y < L; y++ {
			p := aRow[y] * bRow[y]
			if p == 0 {
				continue
			}
			for _, f := range enc.feats[t] {
				buf[f*L+y] += p
			}
			if t == 0 {
				buf[transBase+L*L+y] += p // BOS row
			}
		}
	}
	// Expected transition counts via edge marginals.
	for t := 1; t < n; t++ {
		aPrev := fb.alpha[(t-1)*L : t*L]
		bCur := fb.beta[t*L : (t+1)*L]
		emitCur := fb.emitExp[t*L : (t+1)*L]
		invC := 1 / fb.scale[t]
		for p := 0; p < L; p++ {
			ap := aPrev[p]
			if ap == 0 {
				continue
			}
			trow := g.transExp[p*L : (p+1)*L]
			dst := buf[transBase+p*L : transBase+(p+1)*L]
			for y := 0; y < L; y++ {
				dst[y] += ap * trow[y] * emitCur[y] * bCur[y] * invC
			}
		}
	}
	// Gold path score, from the emission scores forward–backward kept.
	var gold float64
	prev := L
	for t, y := range enc.labels {
		gold += fb.scores[t*L+y] + g.m.trans[prev*L+y]
		prev = y
	}
	return fb.logZ - gold
}
