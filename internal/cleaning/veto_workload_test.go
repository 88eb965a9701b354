package cleaning

import (
	"strings"
	"testing"

	"repro/internal/triples"
	"repro/internal/workload"
)

// TestVetoRulesPerWorkload pins the workload gating contract rule by rule:
// page-shape rules (markup residue cannot occur in a plain-text title, so
// vetoing on it would only eat legitimate values like "<3段階>風量切替") are
// inert on the title workload, while value-shape rules fire identically on
// every workload.
func TestVetoRulesPerWorkload(t *testing.T) {
	long := strings.Repeat("長", 31)
	cases := []struct {
		rule string
		// in triggers exactly one veto rule; keep survives it.
		in, keep triples.Triple
		// removed reports the rule's counter from the stats.
		removed func(VetoStats) int
		// pageShape rules are inert on the title workload.
		pageShape bool
	}{
		{
			rule:    "symbol-only",
			in:      tr("p1", "色", "・・・"),
			keep:    tr("p2", "色", "レッド"),
			removed: func(s VetoStats) int { return s.Symbol },
		},
		{
			rule:      "markup",
			in:        tr("p1", "色", "<br>"),
			keep:      tr("p2", "色", "レッド"),
			removed:   func(s VetoStats) int { return s.Markup },
			pageShape: true,
		},
		{
			rule:      "markup-entity",
			in:        tr("p1", "色", "&nbsp;"),
			keep:      tr("p2", "色", "レッド"),
			removed:   func(s VetoStats) int { return s.Markup },
			pageShape: true,
		},
		{
			rule:    "too-long",
			in:      tr("p1", "色", long),
			keep:    tr("p2", "色", "レッド"),
			removed: func(s VetoStats) int { return s.TooLong },
		},
	}
	for _, wk := range workload.Kinds() {
		for _, tc := range cases {
			t.Run(string(wk)+"/"+tc.rule, func(t *testing.T) {
				out, stats := ApplyVetoFor(wk, []triples.Triple{tc.in, tc.keep}, VetoConfig{PopularFraction: 1})
				inert := tc.pageShape && wk == workload.Title
				wantRemoved, wantLen := 1, 1
				if inert {
					wantRemoved, wantLen = 0, 2
				}
				if got := tc.removed(stats); got != wantRemoved {
					t.Fatalf("%s on %s: removals = %d, want %d", tc.rule, wk, got, wantRemoved)
				}
				if len(out) != wantLen {
					t.Fatalf("%s on %s: kept %d triples, want %d: %v", tc.rule, wk, len(out), wantLen, out)
				}
			})
		}
	}
}

// TestVetoPopularityShared pins the popularity rule (unpopular secondary
// entities) as value-shape: shop-brand noise is exactly the error source the
// title workload inherits from listing titles, so the rule must fire there
// too.
func TestVetoPopularityShared(t *testing.T) {
	var in []triples.Triple
	for i := 0; i < 10; i++ {
		in = append(in, tr("p"+string(rune('a'+i)), "ブランド", "Makita"))
	}
	in = append(in, tr("px", "ブランド", "ShopNoise"))
	for _, wk := range workload.Kinds() {
		out, stats := ApplyVetoFor(wk, in, VetoConfig{PopularFraction: 0.5})
		if stats.Unpopular != 1 {
			t.Fatalf("%s: unpopular removals = %d, want 1", wk, stats.Unpopular)
		}
		for _, o := range out {
			if o.Value == "ShopNoise" {
				t.Fatalf("%s: unpopular entity survived", wk)
			}
		}
	}
}
