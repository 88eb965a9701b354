package crf

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/tagger"
)

// tinyModel builds a 2-feature, 3-label model with hand-set weights for
// brute-force comparison tests.
func tinyModel(rngSeed uint64) *Model {
	labels := []string{"O", "B-a", "I-a"}
	m := &Model{
		cfg:      Config{}.withDefaults(),
		labels:   labels,
		labelIdx: map[string]int{"O": 0, "B-a": 1, "I-a": 2},
		featIdx:  map[string]int{"f0": 0, "f1": 1, "f2": 2, "f3": 3},
	}
	L := len(labels)
	rng := mat.NewRNG(rngSeed)
	m.emit = make([]float64, len(m.featIdx)*L)
	m.trans = make([]float64, (L+1)*L)
	for i := range m.emit {
		m.emit[i] = rng.Uniform(-1.5, 1.5)
	}
	for i := range m.trans {
		m.trans[i] = rng.Uniform(-1.5, 1.5)
	}
	return m
}

// bruteForce enumerates all label paths and returns logZ plus the best path.
func bruteForce(m *Model, feats [][]int) (logZ float64, best []int) {
	L := len(m.labels)
	n := len(feats)
	emit := make([][]float64, n)
	for t := range feats {
		emit[t] = make([]float64, L)
		m.emissionScores(emit[t], feats[t])
	}
	var scores []float64
	bestScore := math.Inf(-1)
	path := make([]int, n)
	var rec func(t int, prev int, acc float64)
	rec = func(t, prev int, acc float64) {
		if t == n {
			scores = append(scores, acc)
			if acc > bestScore {
				bestScore = acc
				best = append(best[:0], path...)
			}
			return
		}
		for y := 0; y < L; y++ {
			path[t] = y
			rec(t+1, y, acc+emit[t][y]+m.trans[prev*L+y])
		}
	}
	rec(0, L, 0)
	return mat.LogSumExp(scores), best
}

func seqFeats(n int) [][]int {
	feats := make([][]int, n)
	for t := range feats {
		feats[t] = []int{t % 4, (t + 1) % 4}
	}
	return feats
}

func TestForwardBackwardLogZMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := tinyModel(seed)
		feats := seqFeats(5)
		fb := newFB(len(m.labels))
		fb.run(m, m.expTrans(nil), &encodedSeq{feats: feats}, 5)
		want, _ := bruteForce(m, feats)
		if math.Abs(fb.logZ-want) > 1e-8 {
			t.Fatalf("seed %d: logZ = %v, brute force = %v", seed, fb.logZ, want)
		}
	}
}

func TestMarginalsSumToOne(t *testing.T) {
	m := tinyModel(3)
	feats := seqFeats(6)
	fb := newFB(len(m.labels))
	fb.run(m, m.expTrans(nil), &encodedSeq{feats: feats}, 6)
	L := len(m.labels)
	for pos := 0; pos < 6; pos++ {
		var sum float64
		for y := 0; y < L; y++ {
			sum += fb.alpha[pos*L+y] * fb.beta[pos*L+y]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("marginals at %d sum to %v", pos, sum)
		}
	}
}

func TestEdgeMarginalsSumToOne(t *testing.T) {
	m := tinyModel(4)
	feats := seqFeats(4)
	fb := newFB(len(m.labels))
	transExp := m.expTrans(nil)
	fb.run(m, transExp, &encodedSeq{feats: feats}, 4)
	L := len(m.labels)
	for pos := 1; pos < 4; pos++ {
		var sum float64
		for p := 0; p < L; p++ {
			for y := 0; y < L; y++ {
				sum += fb.alpha[(pos-1)*L+p] * transExp[p*L+y] *
					fb.emitExp[pos*L+y] * fb.beta[pos*L+y] / fb.scale[pos]
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("edge marginals at %d sum to %v", pos, sum)
		}
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := tinyModel(seed)
		// Build a sequence whose appendFeaturesAt would not match the hand-set
		// alphabet, so exercise the decoder through model internals.
		feats := seqFeats(5)
		_, wantPath := bruteForce(m, feats)
		// Decode with viterbiOnFeats, Predict's Viterbi run on the
		// hand-built feature IDs directly.
		got := viterbiOnFeats(m, feats)
		for i := range wantPath {
			if got[i] != wantPath[i] {
				t.Fatalf("seed %d: viterbi %v, brute force %v", seed, got, wantPath)
			}
		}
	}
}

// viterbiOnFeats mirrors Model.Predict but takes pre-interned features.
func viterbiOnFeats(m *Model, feats [][]int) []int {
	n := len(feats)
	L := len(m.labels)
	score := make([]float64, n*L)
	back := make([]int, n*L)
	emitBuf := make([]float64, L)
	m.emissionScores(emitBuf, feats[0])
	for y := 0; y < L; y++ {
		score[y] = emitBuf[y] + m.trans[m.bosRow()*L+y]
	}
	for pos := 1; pos < n; pos++ {
		m.emissionScores(emitBuf, feats[pos])
		for y := 0; y < L; y++ {
			best, arg := math.Inf(-1), 0
			for p := 0; p < L; p++ {
				s := score[(pos-1)*L+p] + m.trans[p*L+y]
				if s > best {
					best, arg = s, p
				}
			}
			score[pos*L+y] = best + emitBuf[y]
			back[pos*L+y] = arg
		}
	}
	best, arg := math.Inf(-1), 0
	for y := 0; y < L; y++ {
		if score[(n-1)*L+y] > best {
			best, arg = score[(n-1)*L+y], y
		}
	}
	out := make([]int, n)
	for pos := n - 1; pos >= 0; pos-- {
		out[pos] = arg
		arg = back[pos*L+arg]
	}
	return out
}

// trainToy builds sequences where values of attribute "w" are always a digit
// followed by "kg", and colors follow the word "color".
func trainToy(n int) []tagger.Sequence {
	digits := []string{"1", "2", "3", "5", "7", "9"}
	colors := []string{"red", "blue", "pink", "green"}
	rng := mat.NewRNG(11)
	var seqs []tagger.Sequence
	for i := 0; i < n; i++ {
		d := digits[rng.Intn(len(digits))]
		c := colors[rng.Intn(len(colors))]
		seqs = append(seqs,
			tagger.Sequence{
				Tokens: []string{"weight", "is", d, "kg", "total"},
				PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN"},
				Labels: []string{"O", "O", "B-weight", "I-weight", "O"},
			},
			tagger.Sequence{
				Tokens: []string{"color", "is", c, "today"},
				PoS:    []string{"NN", "PART", "NN", "NN"},
				Labels: []string{"O", "O", "B-color", "O"},
			})
	}
	return seqs
}

func TestFitLearnsToyPatterns(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 40}}.Fit(trainToy(30))
	if err != nil {
		t.Fatal(err)
	}
	got := model.Predict(tagger.Sequence{
		Tokens: []string{"weight", "is", "3", "kg", "total"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN"},
	})
	want := []string{"O", "O", "B-weight", "I-weight", "O"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Predict = %v, want %v", got, want)
		}
	}
	got = model.Predict(tagger.Sequence{
		Tokens: []string{"color", "is", "blue", "today"},
		PoS:    []string{"NN", "PART", "NN", "NN"},
	})
	if got[2] != "B-color" {
		t.Fatalf("color not learned: %v", got)
	}
}

func TestFitGeneralizesToUnseenValueViaContext(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 40}}.Fit(trainToy(30))
	if err != nil {
		t.Fatal(err)
	}
	// "8" never appears in training; context features must carry it.
	got := model.Predict(tagger.Sequence{
		Tokens: []string{"weight", "is", "8", "kg", "total"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN"},
	})
	if got[2] != "B-weight" {
		t.Fatalf("no generalization to unseen digit: %v", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := (Trainer{}).Fit(nil); err == nil {
		t.Fatal("empty training set must error")
	}
	allO := []tagger.Sequence{{Tokens: []string{"a"}, PoS: []string{"NN"}, Labels: []string{"O"}}}
	if _, err := (Trainer{}).Fit(allO); err == nil {
		t.Fatal("all-Outside training set must error")
	}
}

func TestL1ProducesSparseModel(t *testing.T) {
	sparseModel, err := Trainer{Config: Config{MaxIter: 40, L1: 1.5, L2: 0.001}}.Fit(trainToy(20))
	if err != nil {
		t.Fatal(err)
	}
	denseModel, err := Trainer{Config: Config{MaxIter: 40, L1: -1, L2: 0.001}}.Fit(trainToy(20))
	if err != nil {
		t.Fatal(err)
	}
	zeros := func(m tagger.Model) int {
		var z int
		for _, w := range m.(*Model).emit {
			if w == 0 {
				z++
			}
		}
		return z
	}
	if zeros(sparseModel) <= zeros(denseModel) {
		t.Fatalf("L1 model not sparser: %d vs %d zero weights", zeros(sparseModel), zeros(denseModel))
	}
}

func TestPredictEmptySequence(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 10}}.Fit(trainToy(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(tagger.Sequence{}); len(got) != 0 {
		t.Fatalf("Predict(empty) = %v", got)
	}
}

// TestPredictWithConfidence checks the confidence path extract.Engine
// decodes with: the Viterbi labels plus an in-range confidence per token.
func TestPredictWithConfidence(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 40}}.Fit(trainToy(30))
	if err != nil {
		t.Fatal(err)
	}
	labels, conf := model.(*Model).NewDecoder().PredictWithConfidence(tagger.Sequence{
		Tokens: []string{"weight", "is", "3", "kg", "total"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN"},
	})
	if labels[2] != "B-weight" {
		t.Fatalf("labels = %v", labels)
	}
	for i, c := range conf {
		if c < 0 || c > 1+1e-9 {
			t.Fatalf("confidence[%d] = %v out of range", i, c)
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	cfg := Config{MaxIter: 15}
	a, err := Trainer{Config: cfg}.Fit(trainToy(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Trainer{Config: cfg}.Fit(trainToy(10))
	if err != nil {
		t.Fatal(err)
	}
	am, bm := a.(*Model), b.(*Model)
	if len(am.emit) != len(bm.emit) {
		t.Fatal("different model sizes across identical runs")
	}
	seq := tagger.Sequence{Tokens: []string{"weight", "is", "5", "kg"}, PoS: []string{"NN", "PART", "NUM", "UNIT"}}
	ga, gb := a.Predict(seq), b.Predict(seq)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("nondeterministic predictions across identical runs")
		}
	}
}

// TestDecoderConfidenceSharesTransitionTable: a Decoder exponentiates the
// transition weights once, on its first confidence call, and every later
// sentence reads that table; the confidences stay bitwise equal to those of
// a fresh Decoder per sentence.
func TestDecoderConfidenceSharesTransitionTable(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 20}}.Fit(trainToy(12))
	if err != nil {
		t.Fatal(err)
	}
	m := model.(*Model)
	d := m.NewDecoder()
	seqs := []tagger.Sequence{
		{Tokens: []string{"weight", "is", "3", "kg", "total"}, PoS: []string{"NN", "PART", "NUM", "UNIT", "NN"}},
		{Tokens: []string{"color", "is", "red"}, PoS: []string{"NN", "PART", "NN"}},
		{Tokens: []string{"total"}, PoS: []string{"NN"}},
		{Tokens: []string{"color", "is", "pink", "and", "weight", "is", "9", "kg"}, PoS: []string{"NN", "PART", "NN", "PART", "NN", "PART", "NUM", "UNIT"}},
	}
	d.Predict(seqs[0])
	if d.transExp != nil {
		t.Fatal("Predict filled the transition table; only confidence calls need it")
	}
	var table *float64
	for i, seq := range seqs {
		gotL, gotC := d.PredictWithConfidence(seq)
		if i == 0 {
			table = &d.transExp[0]
			for j, w := range m.trans {
				if d.transExp[j] != math.Exp(w) {
					t.Fatalf("transExp[%d] = %v, want exp(%v)", j, d.transExp[j], w)
				}
			}
		} else if &d.transExp[0] != table {
			t.Fatalf("sentence %d: transition table recomputed", i)
		}
		wantL, wantC := m.NewDecoder().PredictWithConfidence(seq)
		for k := range wantL {
			if gotL[k] != wantL[k] || math.Float64bits(gotC[k]) != math.Float64bits(wantC[k]) {
				t.Fatalf("sentence %d tok %d: reused decoder (%s %v) vs fresh (%s %v)",
					i, k, gotL[k], gotC[k], wantL[k], wantC[k])
			}
		}
	}
}
