package crf

import (
	"strconv"
	"testing"

	"repro/internal/mat"
	"repro/internal/tagger"
)

func benchTrainingSet(n int) []tagger.Sequence {
	return trainToy(n)
}

func BenchmarkFit(b *testing.B) {
	train := benchTrainingSet(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Trainer{Config: Config{MaxIter: 30}}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	model, err := Trainer{Config: Config{MaxIter: 30}}.Fit(benchTrainingSet(50))
	if err != nil {
		b.Fatal(err)
	}
	seq := tagger.Sequence{
		Tokens: []string{"weight", "is", "3", "kg", "total", "and", "color", "is", "red"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN", "PART", "NN", "PART", "NN"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := model.Predict(seq); len(got) != len(seq.Tokens) {
			b.Fatal("bad prediction length")
		}
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	m := tinyModel(1)
	enc := &encodedSeq{feats: seqFeats(20)}
	fb := newFB(len(m.labels))
	transExp := m.expTrans(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.run(m, transExp, enc, 20)
	}
}

// benchObjectiveSet builds n sentences shaped like the bootstrap's detail-page
// training data: 17 labels (Outside plus B/I of eight attributes), 8–28
// tokens each, a few hundred distinct words.
func benchObjectiveSet(n int) []tagger.Sequence {
	rng := mat.NewRNG(5)
	pos := []string{"NN", "NNS", "JJ", "NUM", "UNIT", "PART", "VB", "DT"}
	seqs := make([]tagger.Sequence, n)
	for i := range seqs {
		length := 8 + rng.Intn(21)
		seq := tagger.Sequence{SentenceIndex: rng.Intn(8)}
		for len(seq.Tokens) < length {
			if rng.Intn(4) == 0 {
				attr := "a" + strconv.Itoa(rng.Intn(8))
				for k, span := 0, 1+rng.Intn(3); k < span && len(seq.Tokens) < length; k++ {
					label := "I-" + attr
					if k == 0 {
						label = "B-" + attr
					}
					seq.Tokens = append(seq.Tokens, attr+"v"+strconv.Itoa(rng.Intn(40)))
					seq.PoS = append(seq.PoS, pos[rng.Intn(5)])
					seq.Labels = append(seq.Labels, label)
				}
				continue
			}
			seq.Tokens = append(seq.Tokens, "w"+strconv.Itoa(rng.Intn(300)))
			seq.PoS = append(seq.PoS, pos[rng.Intn(len(pos))])
			seq.Labels = append(seq.Labels, "O")
		}
		seqs[i] = seq
	}
	return seqs
}

// BenchmarkObjective times one CRF objective evaluation, the unit the
// optimiser repeats (crf.ms_per_eval in perfbench): gradientWorkers is built
// once over a fixed encoded set, and compute runs at a fixed theta.
func BenchmarkObjective(b *testing.B) {
	cfg := Config{}.withDefaults()
	m, encoded, err := encodeTraining(benchObjectiveSet(400), cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := newGradientWorkers(m, encoded, cfg, nil, nil)
	rng := mat.NewRNG(9)
	theta := make([]float64, len(g.empirical))
	for i := range theta {
		theta[i] = rng.Uniform(-0.5, 0.5)
	}
	grad := make([]float64, len(theta))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.compute(theta, grad); err != nil {
			b.Fatal(err)
		}
	}
}
