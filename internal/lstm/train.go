package lstm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tagger"
)

// Trainer fits BiLSTM models.
type Trainer struct {
	Config Config
	// Ctx, when non-nil, cancels training between epochs (and every few
	// hundred sentences within one); Fit then returns the context's error.
	Ctx context.Context
	// Inject is the optional fault-injection hook; it poisons the epoch
	// loss at faultinject.StageLSTMEpoch to exercise the divergence guard.
	// Nil in production.
	Inject *faultinject.Injector
	// Obs, when non-nil, receives the training trajectory: the summed
	// sentence NLL per epoch as a series, and vocabulary sizes as gauges.
	Obs *obs.Recorder
	// ObsScope namespaces this fit's series (e.g. "iter03"), keeping
	// trajectories of successive bootstrap retrainings distinguishable.
	ObsScope string
}

// Fit trains the network with deterministic mini-batch SGD, dropout on the
// token representation, and global gradient-norm clipping. Each batch runs
// forward/backward for its sentences in parallel (Config.Workers bounds the
// fan-out) against the batch-start weights, then applies the per-sentence
// updates sequentially in batch order — so the trained weights are
// bit-identical for every Workers value. After every epoch the summed
// sentence NLL is checked: a NaN/Inf loss aborts training with an error
// wrapping tagger.ErrDiverged so garbage weights never tag the corpus.
func (tr Trainer) Fit(train []tagger.Sequence) (tagger.Model, error) {
	cfg := tr.Config.withDefaults()
	if len(train) == 0 {
		return nil, errNoData
	}
	labels := tagger.LabelSet(train)
	if len(labels) < 2 {
		return nil, errNoSpans
	}
	labelIdx := make(map[string]int, len(labels))
	for i, l := range labels {
		labelIdx[l] = i
	}
	wv, cv := buildVocab(train, cfg.MinCount)
	scope := tr.ObsScope
	if scope == "" {
		scope = "fit"
	}
	tr.Obs.Set("lstm.word_vocab", float64(len(wv)))
	tr.Obs.Set("lstm.char_vocab", float64(len(cv)))
	tr.Obs.Set("lstm.labels", float64(len(labels)))

	rng := mat.NewRNG(cfg.Seed)
	repDim := cfg.WordDim + 2*cfg.CharHidden
	m := &Model{
		cfg: cfg, labels: labels, labelIdx: labelIdx,
		wordVocab: wv, charVocab: cv,
		wordEmb: mat.New(len(wv)+1, cfg.WordDim),
		charEmb: mat.New(len(cv)+1, cfg.CharDim),
		charFwd: newCell(cfg.CharDim, cfg.CharHidden, rng),
		charBwd: newCell(cfg.CharDim, cfg.CharHidden, rng),
		wordFwd: newCell(repDim, cfg.WordHidden, rng),
		wordBwd: newCell(repDim, cfg.WordHidden, rng),
		out:     mat.New(len(labels), 2*cfg.WordHidden),
		outB:    make([]float64, len(labels)),
	}
	m.wordEmb.Uniform(rng, -0.1, 0.1)
	m.charEmb.Uniform(rng, -0.1, 0.1)
	m.out.Xavier(rng)

	// Skip empty sentences once instead of per epoch.
	seqs := make([]tagger.Sequence, 0, len(train))
	for _, s := range train {
		if len(s.Tokens) > 0 {
			seqs = append(seqs, s)
		}
	}
	// One workspace per batch slot, reused across batches and epochs. Slot j
	// always serves the j-th sentence of the current batch, so the parallel
	// phase writes disjoint buffers and the apply phase can walk them in
	// batch order.
	slots := cfg.Batch
	if slots > len(seqs) && len(seqs) > 0 {
		slots = len(seqs)
	}
	wss := make([]*workspace, slots)
	for j := range wss {
		wss[j] = newWorkspace(m)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if tr.Ctx != nil {
			if err := tr.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		lr := cfg.Rate / (1 + cfg.Decay*float64(epoch))
		order := rng.Perm(len(seqs))
		var loss float64
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			// Draw each sentence's dropout seed from the main stream in
			// batch order, so the masks do not depend on worker scheduling.
			for j := range batch {
				wss[j].maskSeed = rng.Uint64()
			}
			err := par.ForEach(tr.Ctx, cfg.Workers, len(batch), func(j int) error {
				if err := tr.Inject.Fire(faultinject.StageLSTMBatch); err != nil {
					return err
				}
				wss[j].gradSentence(seqs[batch[j]], mat.NewRNG(wss[j].maskSeed))
				return nil
			})
			if err != nil {
				return nil, err
			}
			for j := range batch {
				loss += wss[j].nll
				wss[j].apply(lr)
			}
		}
		if tr.Inject.Poison(faultinject.StageLSTMEpoch) {
			loss = math.NaN()
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return nil, fmt.Errorf("lstm: epoch %d loss = %v: %w", epoch, loss, tagger.ErrDiverged)
		}
		tr.Obs.SeriesAdd("lstm."+scope+".epoch_nll", epoch, loss)
		tr.Obs.Add("lstm.epochs", 1)
		tr.Obs.Debug("lstm epoch", "scope", scope, "epoch", epoch, "nll", loss, "rate", lr)
	}
	// The parallelism knob is a property of the machine that trained, not of
	// the model; drop it so saved artifacts are identical across machines.
	m.cfg.Workers = 0
	return m, nil
}

// workspace holds one sentence's gradient accumulators: cell grads, output
// layer, and touched embedding rows. Each batch slot owns a workspace, so
// concurrent gradSentence calls share only the read-only model weights.
type workspace struct {
	model    *Model
	gCharFwd *cellGrad
	gCharBwd *cellGrad
	gWordFwd *cellGrad
	gWordBwd *cellGrad
	gOut     *mat.Matrix
	gOutB    []float64
	gWordEmb map[int][]float64
	gCharEmb map[int][]float64
	maskSeed uint64  // dropout seed of the sentence currently in the slot
	nll      float64 // NLL of that sentence under the batch-start weights
}

func newWorkspace(m *Model) *workspace {
	return &workspace{
		model:    m,
		gCharFwd: newCellGrad(m.charFwd),
		gCharBwd: newCellGrad(m.charBwd),
		gWordFwd: newCellGrad(m.wordFwd),
		gWordBwd: newCellGrad(m.wordBwd),
		gOut:     mat.New(m.out.Rows, m.out.Cols),
		gOutB:    make([]float64, len(m.outB)),
		gWordEmb: make(map[int][]float64),
		gCharEmb: make(map[int][]float64),
	}
}

// gradSentence runs forward and backward for one sentence, leaving the
// gradients in the workspace and the sentence's negative log-likelihood in
// w.nll. It only reads the model, so distinct workspaces may run
// concurrently; rng drives the dropout masks and is private to the call.
func (w *workspace) gradSentence(seq tagger.Sequence, rng *mat.RNG) {
	m := w.model
	cfg := m.cfg
	n := len(seq.Tokens)
	repDim := cfg.WordDim + 2*cfg.CharHidden

	cache := &fwdCache{dropMask: make([][]float64, n)}
	keep := 1 - cfg.Dropout
	for t := 0; t < n; t++ {
		mask := make([]float64, repDim)
		for j := range mask {
			if rng.Float64() < keep {
				mask[j] = 1 / keep // inverted dropout
			}
		}
		cache.dropMask[t] = mask
	}
	m.forwardProbs(seq.Tokens, cache)

	var nll float64
	for t := 0; t < n && t < len(seq.Labels); t++ {
		if y, ok := m.labelIdx[seq.Labels[t]]; ok {
			// A poisoned or overflowed forward pass yields NaN probabilities,
			// which propagate through the log into the epoch sum.
			nll -= math.Log(cache.probs[t][y])
		}
	}
	w.nll = nll

	// Zero accumulators.
	w.gCharFwd.zero()
	w.gCharBwd.zero()
	w.gWordFwd.zero()
	w.gWordBwd.zero()
	w.gOut.Zero()
	mat.ZeroVec(w.gOutB)
	clear(w.gWordEmb)
	clear(w.gCharEmb)

	// Output layer gradient: dlogits = p − onehot(gold).
	hw := cfg.WordHidden
	dhFwd := make([][]float64, n)
	dhBwd := make([][]float64, n) // indexed in reversed order for wordBwd
	for t := 0; t < n; t++ {
		dlogits := append([]float64(nil), cache.probs[t]...)
		if t < len(seq.Labels) {
			if y, ok := m.labelIdx[seq.Labels[t]]; ok {
				dlogits[y]--
			}
		}
		w.gOut.RankOneAdd(1, dlogits, cache.hidden[t])
		mat.Axpy(1, dlogits, w.gOutB)
		dh := make([]float64, 2*hw)
		m.out.MulVecT(dh, dlogits)
		dhFwd[t] = dh[:hw]
		dhBwd[n-1-t] = dh[hw:]
	}
	dRepFwd := m.wordFwd.backward(w.gWordFwd, cache.wordF, dhFwd)
	dRepBwdRev := m.wordBwd.backward(w.gWordBwd, cache.wordB, dhBwd)

	// Combine the two directions' input gradients, undo dropout, and split
	// into word-embedding and char-representation parts.
	hc := cfg.CharHidden
	for t := 0; t < n; t++ {
		dRep := dRepFwd[t]
		mat.Axpy(1, dRepBwdRev[n-1-t], dRep)
		for j := range dRep {
			dRep[j] *= cache.dropMask[t][j]
		}
		wid := m.wordID(seq.Tokens[t])
		acc, ok := w.gWordEmb[wid]
		if !ok {
			acc = make([]float64, cfg.WordDim)
			w.gWordEmb[wid] = acc
		}
		mat.Axpy(1, dRep[:cfg.WordDim], acc)

		chars := cache.charIDs[t]
		if len(chars) == 0 {
			continue
		}
		// Char BiLSTM: gradient lands only on the final step of each
		// direction.
		nf := len(cache.charF[t])
		dhF := make([][]float64, nf)
		dhB := make([][]float64, nf)
		zero := make([]float64, hc)
		for k := 0; k < nf; k++ {
			dhF[k], dhB[k] = zero, zero
		}
		dhF[nf-1] = dRep[cfg.WordDim : cfg.WordDim+hc]
		dhB[nf-1] = dRep[cfg.WordDim+hc:]
		dxF := m.charFwd.backward(w.gCharFwd, cache.charF[t], dhF)
		dxB := m.charBwd.backward(w.gCharBwd, cache.charB[t], dhB)
		for k, cid := range chars {
			acc, ok := w.gCharEmb[cid]
			if !ok {
				acc = make([]float64, cfg.CharDim)
				w.gCharEmb[cid] = acc
			}
			mat.Axpy(1, dxF[k], acc)
			mat.Axpy(1, dxB[nf-1-k], acc)
		}
	}

}

// apply clips the workspace's gradients by global norm and performs one SGD
// step against the model. It mutates shared weights, so the trainer calls it
// sequentially, in batch order.
func (w *workspace) apply(lr float64) {
	m := w.model
	cfg := m.cfg

	// Global norm clipping across all parameter gradients.
	norm2 := w.gCharFwd.norm2Sq() + w.gCharBwd.norm2Sq() +
		w.gWordFwd.norm2Sq() + w.gWordBwd.norm2Sq()
	for _, v := range w.gOut.Data {
		norm2 += v * v
	}
	for _, v := range w.gOutB {
		norm2 += v * v
	}
	// Iterate embedding gradients in sorted-key order so the floating-point
	// accumulation (and therefore the clip scale) is identical across runs.
	wids := sortedKeys(w.gWordEmb)
	cids := sortedKeys(w.gCharEmb)
	for _, id := range wids {
		for _, v := range w.gWordEmb[id] {
			norm2 += v * v
		}
	}
	for _, id := range cids {
		for _, v := range w.gCharEmb[id] {
			norm2 += v * v
		}
	}
	scale := 1.0
	if norm := math.Sqrt(norm2); norm > cfg.ClipNorm {
		scale = cfg.ClipNorm / norm
	}
	step := lr * scale
	m.charFwd.apply(w.gCharFwd, step)
	m.charBwd.apply(w.gCharBwd, step)
	m.wordFwd.apply(w.gWordFwd, step)
	m.wordBwd.apply(w.gWordBwd, step)
	m.out.AddScaled(-step, w.gOut)
	mat.Axpy(-step, w.gOutB, m.outB)
	for _, wid := range wids {
		mat.Axpy(-step, w.gWordEmb[wid], m.wordEmb.Row(wid))
	}
	for _, cid := range cids {
		mat.Axpy(-step, w.gCharEmb[cid], m.charEmb.Row(cid))
	}
}

func sortedKeys(m map[int][]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
