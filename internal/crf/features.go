// Package crf implements the linear-chain Conditional Random Field tagger
// the paper uses as its primary machine-learning method: CRFsuite-style
// feature templates, exact forward–backward inference, Viterbi decoding, and
// L-BFGS/OWL-QN training with the elastic-net (L1+L2) regularisation the
// paper reports using.
package crf

import (
	"strconv"
	"strings"

	"repro/internal/tagger"
)

// FeatureConfig controls the feature templates. The defaults reproduce the
// paper's description: the word at position t, the words in a window of size
// Window around t, the PoS tags of those words, the concatenation of those
// PoS tags, and the sentence number.
type FeatureConfig struct {
	Window int // context radius; default 2
}

func (c FeatureConfig) withDefaults() FeatureConfig {
	if c.Window <= 0 {
		c.Window = 2
	}
	return c
}

// appendFeaturesAt appends the active feature strings for position t of seq
// to feats and returns the extended slice. It is the one featurizer: Fit
// renders its alphabet with it and every Decoder interns its output into
// feature ids, so training and tagging can never disagree about features.
// Callers pass a reused buffer, and strings are built with cheap prefix codes
// rather than fmt, so featurizing allocates only the strings themselves.
func appendFeaturesAt(feats []string, seq tagger.Sequence, t int, cfg FeatureConfig) []string {
	n := len(seq.Tokens)
	feats = append(feats, "w0="+seq.Tokens[t])
	if t < len(seq.PoS) {
		feats = append(feats, "p0="+seq.PoS[t])
	}
	var posConcat strings.Builder
	for off := -cfg.Window; off <= cfg.Window; off++ {
		i := t + off
		o := strconv.Itoa(off)
		switch {
		case i < 0:
			posConcat.WriteString("_BOS_")
			if off != 0 {
				feats = append(feats, "w"+o+"=_BOS_")
			}
		case i >= n:
			posConcat.WriteString("_EOS_")
			if off != 0 {
				feats = append(feats, "w"+o+"=_EOS_")
			}
		default:
			if off != 0 {
				feats = append(feats, "w"+o+"="+seq.Tokens[i])
				if i < len(seq.PoS) {
					feats = append(feats, "p"+o+"="+seq.PoS[i])
				}
			}
			if i < len(seq.PoS) {
				posConcat.WriteString(seq.PoS[i])
			}
		}
		posConcat.WriteByte('|')
	}
	feats = append(feats, "pcat="+posConcat.String())
	feats = append(feats, "sent="+strconv.Itoa(bucketSentence(seq.SentenceIndex)))
	return feats
}

// bucketSentence coarsens the sentence index: titles (index 0) behave very
// differently from description body text, but beyond the first few sentences
// position carries no extra signal, so indices saturate at 5.
func bucketSentence(idx int) int {
	if idx > 5 {
		return 5
	}
	if idx < 0 {
		return 0
	}
	return idx
}
