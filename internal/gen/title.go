// Title-workload corpus generation (More, arXiv:1608.04670): one short
// product title per document instead of a full detail page. Titles reuse the
// same 21 category schemas — attributes, value renderers, brands, noise
// levels — so the two workloads describe the same product universe, but the
// surface is a single dense line: brand, noun, a handful of attribute
// values, promo decorations, and the occasional compatible-with trap. There
// are no sentences and no dictionary tables, so the generator also emits the
// distant-supervision lexicon (a partial per-attribute value inventory) that
// seeds the title bootstrap in place of table harvesting.

package gen

import (
	"context"
	"strings"

	"repro/internal/mat"
	"repro/internal/seed"
	"repro/internal/workload"
)

// lexiconDrawsPerAttr is how many value draws build each attribute's lexicon
// slice. Categorical attributes (a handful of values) come out nearly
// complete; numeric and composite attributes (open ranges) come out sparse —
// the partial coverage is deliberate, so the bootstrap has shapes to
// generalise beyond the lexicon, mirroring how a real taxonomy never lists
// every weight.
const lexiconDrawsPerAttr = 10

// GenerateTitles renders the synthetic title corpus for one category.
func GenerateTitles(cat Category, opt Options) *Corpus {
	c, err := GenerateTitlesStreamCtx(context.Background(), cat, opt, nil)
	if err != nil {
		// Only a canceled context or an armed fault injector can fail
		// generation, and GenerateTitles supplies neither.
		panic(err)
	}
	return c
}

// GenerateTitlesStreamCtx renders the title corpus in bounded-memory chunks,
// invoking emit once per title in document order — the streaming entry point
// `paegen -workload title` uses. The cancellation and determinism contracts
// match GenerateStreamCtx: every per-title draw (and the lexicon, drawn first)
// happens up front on the corpus RNG stream, so the corpus is byte-identical
// for every Workers value and chunking. With a non-nil emit, Corpus.Pages
// stays nil; truth, domains, queries and the lexicon always ride the
// returned Corpus.
func GenerateTitlesStreamCtx(ctx context.Context, cat Category, opt Options, emit func(PageResult) error) (*Corpus, error) {
	// Salted with the workload name so a title corpus never replays the
	// detail-page corpus's draw sequence for the same (category, seed).
	return generate(ctx, cat, opt, emit, "%s-t%05d", hashString(string(workload.Title)),
		func(c *Corpus, rng *mat.RNG) (func(*mat.RNG) int, pageBuilder) {
			c.Workload = workload.Title
			// The lexicon draws first, before any title: it plays the role of
			// an external value inventory that exists prior to the corpus, and
			// drawing it up front keeps every later per-title seed independent
			// of it.
			c.Lexicon = buildLexicon(&cat, rng)
			return nil, func(pid string, _ int, rng *mat.RNG, sink *pageSink) seed.Document {
				return buildTitle(&cat, pid, rng, sink)
			}
		})
}

// buildLexicon draws the partial per-attribute value inventory that seeds the
// title bootstrap. Entries keep draw order (attribute order, then draw
// order) so the lexicon is byte-stable; duplicates within an attribute
// collapse.
func buildLexicon(cat *Category, rng *mat.RNG) []seed.LexiconEntry {
	var lex []seed.LexiconEntry
	for j := range cat.Attributes {
		a := &cat.Attributes[j]
		seen := make(map[string]bool, lexiconDrawsPerAttr)
		for d := 0; d < lexiconDrawsPerAttr; d++ {
			v := renderValue(a, cat.Lang, rng)
			if seen[v] {
				continue
			}
			seen[v] = true
			lex = append(lex, seed.LexiconEntry{Attr: a.Name, Value: v})
		}
	}
	return lex
}

// buildTitle renders one product title and plants its truth judgments and
// domain values into the page-local sink. The document's HTML field carries
// the plain title text — the title workload has no markup.
func buildTitle(cat *Category, pid string, rng *mat.RNG, sink *pageSink) seed.Document {
	values, brandIdx := sink.drawValues(cat, rng)

	decor := titleDecorations(cat.Lang)
	var parts []string
	var decorUsed []string
	pushDecor := func() {
		d := decor[rng.Intn(len(decor))]
		parts = append(parts, d)
		decorUsed = append(decorUsed, d)
	}

	// Leading promo decoration on a noise-dependent minority of titles.
	if rng.Float64() < 0.10+0.3*cat.Noise {
		pushDecor()
	}

	// Brand: usually the product's own (genuine truth), occasionally a
	// decorative shop brand — the secondary-entity error source that on a
	// title sits right next to the noun, where a naive tagger loves it.
	switch {
	case brandIdx >= 0 && rng.Float64() < 0.7:
		parts = append(parts, values[brandIdx])
		sink.addTruth(pid, cat.BrandAttr, values[brandIdx], true)
	case len(cat.Brands) > 0 && rng.Float64() < 0.05+0.35*cat.Noise:
		shop := cat.Brands[rng.Intn(len(cat.Brands))]
		parts = append(parts, shop)
		if brandIdx >= 0 && shop != values[brandIdx] {
			sink.addTruth(pid, cat.BrandAttr, shop, false)
		}
	}
	parts = append(parts, cat.Noun)

	// Titles pack attribute values densely — that is the whole point of the
	// workload: where a detail page surfaces one extra value on ~5% of
	// titles, a listing title advertises most of what the seller thinks
	// matters, scaled by each attribute's MentionProb.
	for j := range cat.Attributes {
		if j == brandIdx {
			continue
		}
		a := &cat.Attributes[j]
		if rng.Float64() < 0.25+0.5*a.MentionProb {
			parts = append(parts, values[j])
			sink.addTruth(pid, a.Name, values[j], true)
		}
	}

	// Compatible-with tail on noisy titles: a value that belongs to another
	// product ("passend für …", "…対応"), which an annotator rejects.
	if rng.Float64() < cat.Noise*0.3 && len(cat.Attributes) > 0 {
		_, sv := sink.foreignValue(cat, pid, values, rng)
		parts = append(parts, compatPhrase(cat.Lang, sv))
	}

	// Trailing decoration.
	if rng.Float64() < 0.15+0.3*cat.Noise {
		pushDecor()
	}

	// Promo decorations are judged like detail-page filler.
	sink.rejectValueLike(cat, pid, decorUsed)

	return seed.Document{ID: pid, HTML: strings.Join(parts, " ")}
}

// titleDecorations returns the promo tokens sellers decorate listing titles
// with — carrying no attribute information, in the way of every tagger.
func titleDecorations(lang string) []string {
	if lang == "de" {
		return []string{"NEU", "OVP", "Originalverpackt", "Blitzversand", "Aktionspreis", "Top-Angebot"}
	}
	return []string{"【送料無料】", "新品", "正規品", "セール特価", "ポイント2倍", "即納"}
}

// compatPhrase renders the compatible-with trap: the value is on the title,
// but it describes what the product fits, not what it is.
func compatPhrase(lang, v string) string {
	if lang == "de" {
		return "passend für " + v
	}
	return v + "対応"
}
