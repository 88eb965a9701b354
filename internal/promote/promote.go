// Package promote implements the gated promotion step of the production
// loop: grow the corpus, retrain, and ship the new model only if it does not
// regress. The gate shadow-evaluates a candidate bundle against the live one
// on a corpus with held-out truth — the same planted referee judgments the
// bootstrap's per-iteration metrics use — and emits a machine-readable
// verdict with per-attribute precision/coverage deltas. The companion fleet
// client (fleet.go) then rolls the candidate across a serving fleet through
// the router's /fleet discovery and each backend's /admin/reload.
//
// The consumers are `paeinspect diff-bundles` (diff + verdict + exit code)
// and `cmd/paepromote` (train → diff → promote).
package promote

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/triples"
)

// ErrNoTruth: the evaluation corpus carries no referee judgments, so there
// is nothing to gate on.
var ErrNoTruth = errors.New("promote: corpus has no truth judgments")

// Tolerance is the regression gate: how much worse the candidate may score
// before it is rejected. Metrics use eval's native percent scale, so drops
// are absolute percentage points (a precision of 93.0 against a live 95.0 is
// a drop of 2.0). The zero value tolerates no drop at all; DefaultTolerance
// leaves headroom for evaluation noise, and small corpora need wider gates —
// on an 80-page corpus one page is 1.25 coverage points.
type Tolerance struct {
	// MaxPrecisionDrop is the largest tolerated drop in overall and
	// per-attribute precision, in percentage points.
	MaxPrecisionDrop float64 `json:"max_precision_drop"`
	// MaxCoverageDrop is the largest tolerated drop in overall and
	// per-attribute coverage, in percentage points.
	MaxCoverageDrop float64 `json:"max_coverage_drop"`
}

// DefaultTolerance absorbs small-sample evaluation noise: two percentage
// points on either axis.
var DefaultTolerance = Tolerance{MaxPrecisionDrop: 2, MaxCoverageDrop: 2}

// Metrics is one side's score on the held-out truth, on eval's percent
// scale (0–100).
type Metrics struct {
	Precision float64 `json:"precision"`
	Coverage  float64 `json:"coverage"`
	Triples   int     `json:"triples"`
}

// AttrDelta compares the two bundles on one attribute.
type AttrDelta struct {
	Attribute string  `json:"attribute"`
	Live      Metrics `json:"live"`
	Candidate Metrics `json:"candidate"`
	// PrecisionDelta and CoverageDelta are candidate minus live: negative
	// means the candidate is worse.
	PrecisionDelta float64 `json:"precision_delta"`
	CoverageDelta  float64 `json:"coverage_delta"`
	// Regressed marks a delta beyond tolerance; Reason says which axis.
	Regressed bool   `json:"regressed,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// Report is the machine-readable diff verdict `paeinspect diff-bundles`
// prints and `paepromote` acts on.
type Report struct {
	LiveFingerprint      string    `json:"live_fingerprint"`
	CandidateFingerprint string    `json:"candidate_fingerprint"`
	Corpus               string    `json:"corpus"`
	TruthJudgments       int       `json:"truth_judgments"`
	Tolerance            Tolerance `json:"tolerance"`
	// Overall is the whole-corpus comparison; Attributes the per-attribute
	// breakdown over the union of both sides' attributes.
	Overall    AttrDelta   `json:"overall"`
	Attributes []AttrDelta `json:"attributes"`
	// Regressions names every regressed axis ("overall precision",
	// "weight coverage", ...), empty on a clean diff.
	Regressions []string `json:"regressions,omitempty"`
	// Promote is the verdict: true when nothing regressed beyond
	// tolerance.
	Promote bool `json:"promote"`
}

// Diff shadow-evaluates the candidate bundle against the live one on the
// corpus at dir, which must carry truth. Both bundles extract the full
// corpus; the planted judgments score each side and the tolerance decides
// the verdict. Identical fingerprints are legal (the diff is then trivially
// clean) so a redeploy of the same artifact passes the gate.
func Diff(ctx context.Context, livePath, candPath, dir string, tol Tolerance) (*Report, error) {
	r, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	ec, err := r.EvalCorpus()
	if err != nil {
		return nil, err
	}
	if ec == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoTruth, dir)
	}
	truth := eval.NewTruth(ec)
	pages := r.Manifest.Pages

	liveTriples, liveFP, err := extractAll(ctx, livePath, r)
	if err != nil {
		return nil, fmt.Errorf("promote: live bundle: %w", err)
	}
	candTriples, candFP, err := extractAll(ctx, candPath, r)
	if err != nil {
		return nil, fmt.Errorf("promote: candidate bundle: %w", err)
	}

	rep := &Report{
		LiveFingerprint:      liveFP,
		CandidateFingerprint: candFP,
		Corpus:               dir,
		TruthJudgments:       truth.Size(),
		Tolerance:            tol,
	}
	rep.Overall = delta("overall",
		metricsOf(truth, liveTriples, pages), metricsOf(truth, candTriples, pages), tol)

	liveAttr := attrMetrics(truth, liveTriples, pages)
	candAttr := attrMetrics(truth, candTriples, pages)
	names := map[string]bool{}
	for a := range liveAttr {
		names[a] = true
	}
	for a := range candAttr {
		names[a] = true
	}
	sorted := make([]string, 0, len(names))
	for a := range names {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	for _, a := range sorted {
		rep.Attributes = append(rep.Attributes, delta(a, liveAttr[a], candAttr[a], tol))
	}

	if rep.Overall.Regressed {
		rep.Regressions = append(rep.Regressions, "overall "+rep.Overall.Reason)
	}
	for _, ad := range rep.Attributes {
		if ad.Regressed {
			rep.Regressions = append(rep.Regressions, ad.Attribute+" "+ad.Reason)
		}
	}
	rep.Promote = len(rep.Regressions) == 0
	return rep, nil
}

// extractAll runs one bundle over the whole corpus.
func extractAll(ctx context.Context, path string, r *corpus.Reader) ([]triples.Triple, string, error) {
	x, err := extract.Open(path, extract.Options{})
	if err != nil {
		return nil, "", err
	}
	src := r.Source()
	defer src.Close()
	ts, err := x.ExtractSource(ctx, src)
	if err != nil {
		return nil, "", err
	}
	return ts, x.Fingerprint(), nil
}

func metricsOf(truth *eval.Truth, ts []triples.Triple, pages int) Metrics {
	return Metrics{
		Precision: truth.Judge(ts).Precision(),
		Coverage:  eval.Coverage(ts, pages),
		Triples:   len(ts),
	}
}

func attrMetrics(truth *eval.Truth, ts []triples.Triple, pages int) map[string]Metrics {
	byAttr := truth.JudgeByAttribute(ts)
	cov := truth.AttributeCoverage(ts, pages)
	counts := map[string]int{}
	for _, tr := range ts {
		counts[tr.Attribute]++
	}
	out := make(map[string]Metrics, len(byAttr))
	for a, rep := range byAttr {
		out[a] = Metrics{Precision: rep.Precision(), Coverage: cov[a], Triples: counts[a]}
	}
	// Attributes the model stopped (or never started) extracting still
	// appear, as zero coverage, so their disappearance is a visible drop
	// rather than a missing row.
	for a, c := range cov {
		if _, ok := out[a]; !ok {
			out[a] = Metrics{Coverage: c, Triples: counts[a]}
		}
	}
	return out
}

// delta compares two metric sets under the tolerance. An attribute the live
// side never extracted cannot regress on precision (there is no baseline),
// but losing coverage the live side had is a regression.
func delta(name string, live, cand Metrics, tol Tolerance) AttrDelta {
	d := AttrDelta{
		Attribute:      name,
		Live:           live,
		Candidate:      cand,
		PrecisionDelta: cand.Precision - live.Precision,
		CoverageDelta:  cand.Coverage - live.Coverage,
	}
	// Precision is only comparable where both sides extracted something: a
	// side with zero triples has an undefined (reported as zero) precision.
	if live.Triples > 0 && cand.Triples > 0 && d.PrecisionDelta < -tol.MaxPrecisionDrop {
		d.Regressed = true
		d.Reason = fmt.Sprintf("precision %.3f -> %.3f", live.Precision, cand.Precision)
		return d
	}
	if d.CoverageDelta < -tol.MaxCoverageDrop {
		d.Regressed = true
		d.Reason = fmt.Sprintf("coverage %.3f -> %.3f", live.Coverage, cand.Coverage)
	}
	return d
}
