package word2vec

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mat"
)

// syntheticCorpus builds sentences from two disjoint topic clusters, so that
// in-cluster words co-occur and cross-cluster words never do.
func syntheticCorpus(n int, seed uint64) [][]string {
	colors := []string{"red", "blue", "green", "pink", "white"}
	weights := []string{"1kg", "2kg", "5kg", "500g", "250g"}
	rng := mat.NewRNG(seed)
	var out [][]string
	for i := 0; i < n; i++ {
		var pool []string
		if i%2 == 0 {
			pool = colors
		} else {
			pool = weights
		}
		sent := make([]string, 6)
		for j := range sent {
			sent[j] = pool[rng.Intn(len(pool))]
		}
		out = append(out, sent)
	}
	return out
}

// sliceOf replays an in-memory corpus as a SentenceStream.
func sliceOf(sentences [][]string) SentenceStream {
	return func(yield func([]string) error) error {
		for _, s := range sentences {
			if err := yield(s); err != nil {
				return err
			}
		}
		return nil
	}
}

// train fits embeddings on an in-memory corpus.
func train(tb testing.TB, sentences [][]string, cfg Config) *Model {
	tb.Helper()
	m, err := TrainStream(sliceOf(sentences), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestTrainSeparatesTopics(t *testing.T) {
	m := train(t, syntheticCorpus(400, 7), Config{Dim: 16, Epochs: 5, Seed: 3})
	if m.VocabSize() != 10 {
		t.Fatalf("vocab = %d, want 10", m.VocabSize())
	}
	inCluster := m.Similarity("red", "blue")
	crossCluster := m.Similarity("red", "2kg")
	if inCluster <= crossCluster {
		t.Fatalf("in-cluster sim %.3f should exceed cross-cluster %.3f", inCluster, crossCluster)
	}
}

func TestTrainDeterministic(t *testing.T) {
	corpus := syntheticCorpus(100, 1)
	cfg := Config{Dim: 8, Epochs: 2, Seed: 9}
	a := train(t, corpus, cfg)
	b := train(t, corpus, cfg)
	va, _ := a.Vector("red")
	vb, _ := b.Vector("red")
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("training is not deterministic for equal seeds")
		}
	}
}

func TestMinCountFiltersRareWords(t *testing.T) {
	corpus := [][]string{
		{"common", "common", "rare"},
		{"common", "common", "other"},
		{"common", "other"},
	}
	m := train(t, corpus, Config{MinCount: 2, Epochs: 1})
	if m.Has("rare") {
		t.Fatal("rare word should be filtered by MinCount")
	}
	if !m.Has("common") || !m.Has("other") {
		t.Fatal("frequent words missing from vocab")
	}
}

func TestEmptyCorpus(t *testing.T) {
	m := train(t, nil, Config{})
	if m.VocabSize() != 0 {
		t.Fatal("empty corpus should give empty vocab")
	}
	if _, ok := m.Vector("x"); ok {
		t.Fatal("Vector on empty model should report not-found")
	}
	if s := m.Similarity("a", "b"); s != 0 {
		t.Fatalf("Similarity on empty model = %v, want 0", s)
	}
}

func TestSingleWordSentencesIgnored(t *testing.T) {
	// Sentences of length 1 provide no context pairs; training must not
	// panic and vectors must still exist for vocabulary words.
	corpus := [][]string{{"a"}, {"a"}, {"b"}, {"b"}, {"a", "b"}, {"a", "b"}}
	m := train(t, corpus, Config{MinCount: 1, Epochs: 1})
	if !m.Has("a") || !m.Has("b") {
		t.Fatal("vocab incomplete")
	}
}

func TestVectorDimension(t *testing.T) {
	m := train(t, syntheticCorpus(50, 2), Config{Dim: 24, Epochs: 1, MinCount: 1})
	v, ok := m.Vector("red")
	if !ok || len(v) != 24 {
		t.Fatalf("Vector dim = %d, want 24", len(v))
	}
}

func TestWordsSortedDeterministic(t *testing.T) {
	m := train(t, syntheticCorpus(50, 4), Config{Epochs: 1, MinCount: 1})
	words := m.Words()
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			t.Fatalf("vocabulary not sorted: %v", words)
		}
	}
}

func TestSimilarityIsSymmetric(t *testing.T) {
	m := train(t, syntheticCorpus(200, 5), Config{Dim: 16, Epochs: 3})
	if ab, ba := m.Similarity("red", "blue"), m.Similarity("blue", "red"); ab != ba {
		t.Fatalf("similarity asymmetric: %v vs %v", ab, ba)
	}
	if self := m.Similarity("red", "red"); self < 0.999 {
		t.Fatalf("self-similarity = %v, want ~1", self)
	}
}

// TestTrainStreamMatchesTrain: the two-pass streaming trainer replays its
// stream exactly twice and depends only on the sentence sequence — a stream
// that hands out a fresh copy of every sentence on each replay yields the
// same vocab and vectors as one replaying the same slices.
func TestTrainStreamMatchesTrain(t *testing.T) {
	corpus := syntheticCorpus(120, 5)
	cfg := Config{Dim: 8, Epochs: 2, Seed: 11}
	want := train(t, corpus, cfg)

	replays := 0
	got, err := TrainStream(func(yield func([]string) error) error {
		replays++
		for _, s := range corpus {
			if err := yield(append([]string(nil), s...)); err != nil {
				return err
			}
		}
		return nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if replays != 2 {
		t.Fatalf("stream replayed %d times, want exactly 2 (count pass + encode pass)", replays)
	}
	if !reflect.DeepEqual(want.Words(), got.Words()) {
		t.Fatal("vocabularies differ")
	}
	for _, w := range want.Words() {
		a, _ := want.Vector(w)
		b, _ := got.Vector(w)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("vector for %q differs between the two streams", w)
		}
	}
}

// TestTrainStreamPropagatesError: a failing stream surfaces its error.
func TestTrainStreamPropagatesError(t *testing.T) {
	boom := errors.New("shard unreadable")
	if _, err := TrainStream(func(func([]string) error) error { return boom }, Config{}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the stream's error", err)
	}
}
