package lstm

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/tagger"
)

func toySequences(n int, seed uint64) []tagger.Sequence {
	digits := []string{"1", "2", "3", "5", "7"}
	colors := []string{"red", "blue", "pink"}
	rng := mat.NewRNG(seed)
	var seqs []tagger.Sequence
	for i := 0; i < n; i++ {
		d := digits[rng.Intn(len(digits))]
		c := colors[rng.Intn(len(colors))]
		seqs = append(seqs,
			tagger.Sequence{
				Tokens: []string{"weight", "is", d, "kg"},
				Labels: []string{"O", "O", "B-weight", "I-weight"},
			},
			tagger.Sequence{
				Tokens: []string{"color", "is", c},
				Labels: []string{"O", "O", "B-color"},
			})
	}
	return seqs
}

func smallConfig(epochs int) Config {
	return Config{
		WordDim: 10, CharDim: 6, CharHidden: 6, WordHidden: 10,
		Epochs: epochs, MinCount: 1, Seed: 3,
	}
}

func TestFitLearnsToyPatterns(t *testing.T) {
	model, err := Trainer{Config: smallConfig(12)}.Fit(toySequences(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	got := model.Predict(tagger.Sequence{Tokens: []string{"weight", "is", "3", "kg"}})
	if got[2] != "B-weight" {
		t.Fatalf("Predict = %v, want B-weight at position 2", got)
	}
	got = model.Predict(tagger.Sequence{Tokens: []string{"color", "is", "red"}})
	if got[2] != "B-color" {
		t.Fatalf("Predict = %v, want B-color at position 2", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := (Trainer{}).Fit(nil); err == nil {
		t.Fatal("empty training set must error")
	}
	allO := []tagger.Sequence{{Tokens: []string{"a"}, Labels: []string{"O"}}}
	if _, err := (Trainer{}).Fit(allO); err == nil {
		t.Fatal("all-Outside training set must error")
	}
}

func TestPredictEmpty(t *testing.T) {
	model, err := Trainer{Config: smallConfig(1)}.Fit(toySequences(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(tagger.Sequence{}); len(got) != 0 {
		t.Fatalf("Predict(empty) = %v", got)
	}
}

func TestProbabilitiesAreDistributions(t *testing.T) {
	model, err := Trainer{Config: smallConfig(2)}.Fit(toySequences(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	probs := model.(*Model).forwardProbs([]string{"weight", "is", "9", "kg"}, nil)
	for t2, row := range probs {
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("prob out of range at %d: %v", t2, row)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs at %d sum to %v", t2, sum)
		}
	}
}

func TestUnknownWordsUseUNK(t *testing.T) {
	model, err := Trainer{Config: smallConfig(2)}.Fit(toySequences(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Must not panic on fully unseen tokens (runes included).
	got := model.Predict(tagger.Sequence{Tokens: []string{"未知語", "xyz"}})
	if len(got) != 2 {
		t.Fatalf("Predict on OOV = %v", got)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	cfg := smallConfig(3)
	a, err := Trainer{Config: cfg}.Fit(toySequences(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trainer{Config: cfg}.Fit(toySequences(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	seq := tagger.Sequence{Tokens: []string{"weight", "is", "2", "kg"}}
	pa := a.(*Model).forwardProbs(seq.Tokens, nil)
	pb := b.(*Model).forwardProbs(seq.Tokens, nil)
	for i := range pa {
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				t.Fatal("training not bit-deterministic across identical runs")
			}
		}
	}
}

func TestMoreEpochsFitTrainingDataBetter(t *testing.T) {
	// The paper's overfitting finding depends on epochs actually increasing
	// training-set fit; verify the mechanism.
	train := toySequences(20, 6)
	short, err := Trainer{Config: smallConfig(1)}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Trainer{Config: smallConfig(15)}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	acc := func(m tagger.Model) float64 {
		var correct, total int
		for _, s := range train {
			got := m.Predict(s)
			for i := range got {
				if got[i] == s.Labels[i] {
					correct++
				}
				total++
			}
		}
		return float64(correct) / float64(total)
	}
	if acc(long) < acc(short)-1e-9 {
		t.Fatalf("15-epoch training accuracy %.3f below 1-epoch %.3f", acc(long), acc(short))
	}
}

// Numerical gradient check: perturb a handful of parameters and compare the
// analytic gradient of the sentence loss against finite differences.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	cfg := Config{
		WordDim: 4, CharDim: 3, CharHidden: 3, WordHidden: 4,
		Epochs: 1, MinCount: 1, Seed: 7,
	}.withDefaults()
	train := []tagger.Sequence{
		{Tokens: []string{"a", "bb", "c"}, Labels: []string{"O", "B-x", "O"}},
	}
	labels := tagger.LabelSet(train)
	labelIdx := map[string]int{}
	for i, l := range labels {
		labelIdx[l] = i
	}
	wv, cv := buildVocab(train, 1)
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
	m.wordEmb.Uniform(rng, -0.5, 0.5)
	m.charEmb.Uniform(rng, -0.5, 0.5)
	m.out.Xavier(rng)

	seq := train[0]
	loss := func() float64 {
		probs := m.forwardProbs(seq.Tokens, nil)
		var l float64
		for t2 := range seq.Tokens {
			y := labelIdx[seq.Labels[t2]]
			l -= math.Log(probs[t2][y])
		}
		return l
	}
	// Analytic gradients via a dropout-free training pass: build the cache
	// with an all-ones mask and inspect accumulated grads before apply.
	w := newWorkspace(m)
	cache := &fwdCache{dropMask: make([][]float64, len(seq.Tokens))}
	for i := range cache.dropMask {
		mask := make([]float64, repDim)
		for j := range mask {
			mask[j] = 1
		}
		cache.dropMask[i] = mask
	}
	m.forwardProbs(seq.Tokens, cache)
	backpropOnly(m, w, seq, cache)

	check := func(name string, param, grad []float64, idx int) {
		const eps = 1e-5
		orig := param[idx]
		param[idx] = orig + eps
		up := loss()
		param[idx] = orig - eps
		down := loss()
		param[idx] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-grad[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", name, idx, grad[idx], num)
		}
	}
	check("out", m.out.Data, w.gOut.Data, 0)
	check("out", m.out.Data, w.gOut.Data, 5)
	check("wordFwd.wx", m.wordFwd.wx.Data, w.gWordFwd.wx.Data, 3)
	check("wordBwd.wx", m.wordBwd.wx.Data, w.gWordBwd.wx.Data, 10)
	check("wordFwd.wh", m.wordFwd.wh.Data, w.gWordFwd.wh.Data, 2)
	check("charFwd.wx", m.charFwd.wx.Data, w.gCharFwd.wx.Data, 1)
	check("charBwd.wx", m.charBwd.wx.Data, w.gCharBwd.wx.Data, 4)
	check("wordFwd.b", m.wordFwd.b, w.gWordFwd.b, 1)
}

// backpropOnly mirrors the backward half of trainSentence without the SGD
// apply, leaving gradients in the accumulators for inspection.
func backpropOnly(m *Model, w *workspace, seq tagger.Sequence, cache *fwdCache) {
	cfg := m.cfg
	n := len(seq.Tokens)
	hw := cfg.WordHidden
	hc := cfg.CharHidden
	dhFwd := make([][]float64, n)
	dhBwd := make([][]float64, n)
	for t := 0; t < n; t++ {
		dlogits := append([]float64(nil), cache.probs[t]...)
		if y, ok := m.labelIdx[seq.Labels[t]]; ok {
			dlogits[y]--
		}
		w.gOut.RankOneAdd(1, dlogits, cache.hidden[t])
		dh := make([]float64, 2*hw)
		m.out.MulVecT(dh, dlogits)
		dhFwd[t] = dh[:hw]
		dhBwd[n-1-t] = dh[hw:]
	}
	dRepFwd := m.wordFwd.backward(w.gWordFwd, cache.wordF, dhFwd)
	dRepBwdRev := m.wordBwd.backward(w.gWordBwd, cache.wordB, dhBwd)
	for t := 0; t < n; t++ {
		dRep := dRepFwd[t]
		mat.Axpy(1, dRepBwdRev[n-1-t], dRep)
		chars := cache.charIDs[t]
		if len(chars) == 0 {
			continue
		}
		nf := len(cache.charF[t])
		dhF := make([][]float64, nf)
		dhB := make([][]float64, nf)
		zero := make([]float64, hc)
		for k := 0; k < nf; k++ {
			dhF[k], dhB[k] = zero, zero
		}
		dhF[nf-1] = dRep[cfg.WordDim : cfg.WordDim+hc]
		dhB[nf-1] = dRep[cfg.WordDim+hc:]
		m.charFwd.backward(w.gCharFwd, cache.charF[t], dhF)
		m.charBwd.backward(w.gCharBwd, cache.charB[t], dhB)
	}
}
