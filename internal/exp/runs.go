package exp

import (
	"fmt"

	"repro/internal/cleaning"
	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/lstm"
	"repro/internal/seed"
	"repro/internal/text"
	"repro/internal/triples"
	"repro/internal/workload"
)

// crfConfig is the paper's CRF setup; clean toggles both cleaning modules.
func crfConfig(iters int, clean bool) (core.Config, string) {
	cfg := core.Config{
		Iterations: iters,
		Model:      core.CRF,
		CRF:        crf.Config{MaxIter: 40},
	}
	if !clean {
		cfg.DisableSyntacticCleaning = true
		cfg.DisableSemanticCleaning = true
	}
	return cfg, fmt.Sprintf("crf/it%d/clean=%v", iters, clean)
}

// rnnConfig is the NeuroNER-style BiLSTM setup with the epoch knob of the
// paper's overfitting experiment.
func rnnConfig(iters, epochs int, clean bool) (core.Config, string) {
	cfg := core.Config{
		Iterations: iters,
		Model:      core.RNN,
		LSTM:       lstm.Config{Epochs: epochs},
	}
	if !clean {
		cfg.DisableSyntacticCleaning = true
		cfg.DisableSemanticCleaning = true
	}
	return cfg, fmt.Sprintf("rnn%d/it%d/clean=%v", epochs, iters, clean)
}

// seedOnlyConfig runs the pre-processor without any bootstrap cycle.
func seedOnlyConfig() (core.Config, string) {
	return core.Config{Iterations: core.SeedOnly}, "seedonly"
}

// iterTriples returns the triple set after iteration i (1-based); it falls
// back to the last completed iteration when the bootstrap ended early.
func iterTriples(r *categoryRun, i int) []triples.Triple {
	its := r.result.Iterations
	if len(its) == 0 {
		return r.result.SeedTriples
	}
	if i > len(its) {
		i = len(its)
	}
	return its[i-1].Triples
}

// cleanExternally applies the veto rules and the semantic-drift filter to a
// raw triple batch outside the pipeline. Running the pipeline once without
// cleaning and post-processing its first-iteration output this way is
// equivalent to a with-cleaning run truncated at iteration 1 (the training
// set of iteration 1 does not depend on the toggle), and halves the model
// trainings Tables II/III need.
func cleanExternally(r *categoryRun, raw []triples.Triple) []triples.Triple {
	// Strip the seed triples, clean the tagged remainder, and recombine —
	// the pipeline cleans only model output.
	seedKeys := make(map[string]bool, len(r.result.SeedTriples))
	for _, t := range r.result.SeedTriples {
		seedKeys[t.Key()] = true
	}
	var tagged []triples.Triple
	for _, t := range raw {
		if !seedKeys[t.Key()] {
			tagged = append(tagged, t)
		}
	}
	kept, _ := cleaning.ApplyVetoFor(workload.DetailPage, tagged, cleaning.VetoConfig{})
	tok := text.ForLanguage(r.corpus.Lang)
	scfg := seed.Config{Tokenizer: tok}.WithDefaults()
	var corpusTokens [][]string
	for _, p := range r.corpus.Pages {
		for _, s := range seed.SplitDocument(p, scfg) {
			corpusTokens = append(corpusTokens, text.Texts(s.Tokens))
		}
	}
	semCfg := cleaning.SemanticConfig{TokenizeValue: func(s string) []string {
		return text.Texts(tok.Tokenize(s))
	}}
	kept, _, err := cleaning.SemanticCleanStream(kept, func(yield func([]string) error) error {
		for _, s := range corpusTokens {
			if err := yield(s); err != nil {
				return err
			}
		}
		return nil
	}, semCfg)
	if err != nil {
		// An in-memory stream cannot fail; an error here is a programming bug.
		panic(err)
	}
	out := append(append([]triples.Triple(nil), r.result.SeedTriples...), kept...)
	return triples.Dedup(out)
}
