package word2vec

import "testing"

func BenchmarkTrain(b *testing.B) {
	corpus := syntheticCorpus(200, 1)
	cfg := Config{Dim: 32, Epochs: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := train(b, corpus, cfg)
		if m.VocabSize() == 0 {
			b.Fatal("empty model")
		}
	}
}

func BenchmarkSimilarity(b *testing.B) {
	m := train(b, syntheticCorpus(200, 1), Config{Dim: 32, Epochs: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Similarity("red", "2kg")
	}
}
