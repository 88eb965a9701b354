// Package cleaning implements the paper's Cleaning component (§V-C): the
// four domain-independent veto rules that discard syntactically malformed
// values, and the word-embedding-based semantic filter that prevents
// semantic drift across bootstrap iterations.
package cleaning

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/triples"
	"repro/internal/workload"
)

// VetoConfig parameterises the non-semantic cleaning module. The defaults
// are the paper's: keep the top 80% most popular entities per attribute and
// reject values longer than 30 characters.
type VetoConfig struct {
	// PopularFraction of entities (by tagged-item count) kept per attribute.
	PopularFraction float64
	// MaxValueLen in characters (runes).
	MaxValueLen int
}

// WithDefaults fills unset fields with the paper's values.
func (c VetoConfig) WithDefaults() VetoConfig {
	if c.PopularFraction == 0 {
		c.PopularFraction = 0.8
	}
	if c.MaxValueLen == 0 {
		c.MaxValueLen = 30
	}
	return c
}

// VetoStats reports how many triples each rule removed, for the error
// analysis the paper performs in §VIII-B.
type VetoStats struct {
	Symbol    int
	Markup    int
	Unpopular int
	TooLong   int
}

// Removed returns the total number of vetoed triples.
func (s VetoStats) Removed() int { return s.Symbol + s.Markup + s.Unpopular + s.TooLong }

// ApplyVetoFor runs the four veto rules appropriate for the workload over
// the triples and returns the survivors plus per-rule removal counts. Rules
// (i), (ii) and (iv) are per-triple; rule (iii) — unpopular entities — is
// computed per attribute over the whole batch, keeping only the most popular
// entities that jointly cover PopularFraction of the tagged items, as in
// Riloff & Jones [23].
//
// The rules split into two classes: value-shape rules (symbol-only, too-long,
// unpopular-entity) that hold for any text shape, and the page-shape markup
// rule (ii), which exists to catch HTML lexer remnants and is therefore
// inert on the title workload — titles are plain text, so an angle bracket
// or entity-looking token is part of the value, not tag debris. Gating the
// rule set per workload keeps the detail-page path byte-identical while the
// title path never pays for (or is distorted by) rules about a shape it
// does not have.
func ApplyVetoFor(wk workload.Kind, ts []triples.Triple, cfg VetoConfig) ([]triples.Triple, VetoStats) {
	cfg = cfg.WithDefaults()
	markupActive := wk.WithDefault() != workload.Title
	var stats VetoStats
	kept := make([]triples.Triple, 0, len(ts))
	for _, t := range ts {
		switch {
		case isSymbolEntity(t.Value):
			stats.Symbol++
		case markupActive && isMarkup(t.Value):
			stats.Markup++
		case utf8.RuneCountInString(t.Value) > cfg.MaxValueLen:
			stats.TooLong++
		default:
			kept = append(kept, t)
		}
	}
	// Rule (iii): per attribute, rank entities by the number of items
	// tagged with them and keep the top entities covering PopularFraction
	// of items.
	type entKey struct{ attr, value string }
	items := make(map[entKey]map[string]bool)
	for _, t := range kept {
		k := entKey{t.Attribute, t.Value}
		if items[k] == nil {
			items[k] = make(map[string]bool)
		}
		items[k][t.ProductID] = true
	}
	byAttr := make(map[string][]entKey)
	attrTotal := make(map[string]int)
	for k, prods := range items {
		byAttr[k.attr] = append(byAttr[k.attr], k)
		attrTotal[k.attr] += len(prods)
	}
	allowed := make(map[entKey]bool, len(items))
	for attr, ents := range byAttr {
		sort.Slice(ents, func(i, j int) bool {
			a, b := len(items[ents[i]]), len(items[ents[j]])
			if a != b {
				return a > b
			}
			return ents[i].value < ents[j].value
		})
		budget := int(cfg.PopularFraction * float64(attrTotal[attr]))
		covered := 0
		for _, e := range ents {
			if covered >= budget && covered > 0 {
				break
			}
			allowed[e] = true
			covered += len(items[e])
		}
	}
	out := kept[:0]
	for _, t := range kept {
		if allowed[entKey{t.Attribute, t.Value}] {
			out = append(out, t)
		} else {
			stats.Unpopular++
		}
	}
	return out, stats
}

// isSymbolEntity reports whether the value is a 1-gram consisting only of
// symbols or punctuation (veto rule i).
func isSymbolEntity(v string) bool {
	if v == "" {
		return true
	}
	for _, r := range v {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// isMarkup reports whether the value looks like an HTML tag or entity
// remnant (veto rule ii).
func isMarkup(v string) bool {
	if strings.ContainsAny(v, "<>") {
		return true
	}
	if strings.HasPrefix(v, "&") && strings.HasSuffix(v, ";") {
		return true
	}
	return false
}
