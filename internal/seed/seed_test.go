package seed

import (
	"context"
	"strings"
	"testing"

	"repro/internal/tagger"
)

func doc(id, html string) Document { return Document{ID: id, HTML: html} }

func dictPage(rows ...[2]string) string {
	var sb strings.Builder
	sb.WriteString("<html><body><table>")
	for _, r := range rows {
		sb.WriteString("<tr><th>" + r[0] + "</th><td>" + r[1] + "</td></tr>")
	}
	sb.WriteString("</table></body></html>")
	return sb.String()
}

func TestDiscoverCandidates(t *testing.T) {
	docs := []Document{
		doc("p1", dictPage([2]string{"重量", "2kg"}, [2]string{"カラー", "レッド"})),
		doc("p2", "<html><body><p>no tables here</p></body></html>"),
	}
	got := DiscoverCandidates(docs)
	if len(got) != 2 {
		t.Fatalf("candidates = %v", got)
	}
	if got[0].Attr != "重量" || got[0].Value != "2kg" || got[0].DocID != "p1" {
		t.Fatalf("got[0] = %+v", got[0])
	}
}

func TestDiscoverCandidatesSkipsBlank(t *testing.T) {
	docs := []Document{doc("p1", dictPage([2]string{"  ", "2kg"}, [2]string{"a", "1"}, [2]string{"b", "2"}))}
	for _, c := range DiscoverCandidates(docs) {
		if strings.TrimSpace(c.Attr) == "" {
			t.Fatal("blank attribute survived")
		}
	}
}

func TestAggregateAttributesMergesAliases(t *testing.T) {
	var cands []Candidate
	// 重量 and 本体重量 repeatedly share the same values; 重量 is more
	// frequent. Values must recur on both sides — single co-occurrences are
	// treated as noise (swapped table cells).
	for _, v := range []string{"1kg", "2kg", "3kg", "4kg"} {
		for i := 0; i < 3; i++ {
			cands = append(cands, Candidate{Attr: "重量", Value: v})
		}
		cands = append(cands,
			Candidate{Attr: "本体重量", Value: v},
			Candidate{Attr: "本体重量", Value: v})
	}
	// カラー is disjoint from the weights.
	for _, v := range []string{"レッド", "ブルー"} {
		cands = append(cands, Candidate{Attr: "カラー", Value: v})
	}
	merged, rep := AggregateAttributes(cands, Config{})
	if rep["本体重量"] != "重量" {
		t.Fatalf("本体重量 not merged into 重量: %v", rep)
	}
	if rep["カラー"] != "カラー" {
		t.Fatalf("カラー wrongly merged: %v", rep)
	}
	for _, c := range merged {
		if c.Attr == "本体重量" {
			t.Fatal("candidates not rewritten to representative")
		}
	}
}

func TestAggregateDoesNotMergeDisjoint(t *testing.T) {
	var cands []Candidate
	for _, v := range []string{"a", "b", "c"} {
		cands = append(cands, Candidate{Attr: "x", Value: v})
	}
	for _, v := range []string{"d", "e", "f"} {
		cands = append(cands, Candidate{Attr: "y", Value: v})
	}
	_, rep := AggregateAttributes(cands, Config{})
	if rep["x"] == rep["y"] {
		t.Fatal("disjoint attributes merged")
	}
}

func TestCleanValuesKeepsQueryAndFrequentValues(t *testing.T) {
	cands := []Candidate{
		{Attr: "色", Value: "レッド"}, {Attr: "色", Value: "レッド"}, {Attr: "色", Value: "レッド"},
		{Attr: "色", Value: "まれな値"},
		{Attr: "色", Value: "クエリ値"},
	}
	out := CleanValues(cands, []string{"クエリ値"}, Config{MinValueFreq: 3})
	vals := map[string]int{}
	for _, c := range out {
		vals[c.Value]++
	}
	if vals["レッド"] != 3 {
		t.Fatalf("frequent value dropped: %v", vals)
	}
	if vals["クエリ値"] != 1 {
		t.Fatalf("query value dropped: %v", vals)
	}
	if vals["まれな値"] != 0 {
		t.Fatalf("rare value kept: %v", vals)
	}
}

func TestDiversifyReAdmitsDecimalShapes(t *testing.T) {
	// Integers dominate; the lone decimals were cleaned away.
	var raw []Candidate
	for i := 0; i < 10; i++ {
		raw = append(raw, Candidate{Attr: "重量", Value: "2kg"})
	}
	raw = append(raw,
		Candidate{Attr: "重量", Value: "2.5kg"},
		Candidate{Attr: "重量", Value: "3.5kg"},
	)
	clean := CleanValues(raw, nil, Config{MinValueFreq: 3}) // only "2kg" survives
	for _, c := range clean {
		if strings.Contains(c.Value, ".") {
			t.Fatal("test premise broken: decimal survived cleaning")
		}
	}
	div := Diversify(clean, raw, Config{TopShapes: 4, ValuesPerShape: 5})
	var hasDecimal bool
	for _, c := range div {
		if strings.Contains(c.Value, ".") {
			hasDecimal = true
		}
	}
	if !hasDecimal {
		t.Fatal("diversification did not re-admit the decimal shape")
	}
}

func TestDiversifyRespectsTopShapes(t *testing.T) {
	var raw []Candidate
	// Three shapes: integer+unit (dominant), decimal, plain word.
	for i := 0; i < 9; i++ {
		raw = append(raw, Candidate{Attr: "a", Value: "2kg"})
	}
	raw = append(raw, Candidate{Attr: "a", Value: "2.5kg"})
	raw = append(raw, Candidate{Attr: "a", Value: "ワード"})
	div := Diversify(nil, raw, Config{TopShapes: 1, ValuesPerShape: 5})
	for _, c := range div {
		if c.Value != "2kg" {
			t.Fatalf("TopShapes=1 admitted shape of %q", c.Value)
		}
	}
}

func TestPairsDedup(t *testing.T) {
	cands := []Candidate{
		{Attr: "a", Value: "1", DocID: "x"},
		{Attr: "a", Value: "1", DocID: "y"},
		{Attr: "a", Value: "2", DocID: "x"},
	}
	got := Pairs(cands)
	if len(got) != 2 {
		t.Fatalf("Pairs = %v", got)
	}
}

// labelSentences runs LabelSentencesCtx on one worker.
func labelSentences(tb testing.TB, sents []SentenceOf, pairs []Candidate, allowed map[string]map[string]bool, cfg Config) []tagger.Sequence {
	tb.Helper()
	seqs, err := LabelSentencesCtx(context.Background(), sents, pairs, allowed, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return seqs
}

// trainingSet builds the initial labeled dataset the way the bootstrap's
// prep stage does: the sentences of the documents that contributed seed
// candidates, labeled with those candidates.
func trainingSet(tb testing.TB, docs []Document, cands []Candidate, cfg Config) []tagger.Sequence {
	tb.Helper()
	seedDocs := make(map[string]bool)
	for _, c := range cands {
		seedDocs[c.DocID] = true
	}
	var sents []SentenceOf
	for _, d := range docs {
		if seedDocs[d.ID] {
			sents = append(sents, SplitDocument(d, cfg)...)
		}
	}
	return labelSentences(tb, sents, cands, nil, cfg)
}

func TestGenerateTrainingSetLabelsSeedOccurrences(t *testing.T) {
	html := `<html><body><p>重量は2kgです。</p><table><tr><th>重量</th><td>2kg</td></tr><tr><th>色</th><td>レッド</td></tr></table></body></html>`
	docs := []Document{doc("p1", html), doc("p2", "<p>重量は2kgです。</p>")}
	cands := DiscoverCandidates(docs)
	seqs := trainingSet(t, docs, cands, Config{})
	if len(seqs) == 0 {
		t.Fatal("no sequences")
	}
	// Only p1 (the seed doc) is labeled.
	for _, s := range seqs {
		if s.PageID == "p2" {
			t.Fatal("non-seed document labeled")
		}
	}
	var foundSpan bool
	for _, s := range seqs {
		for _, sp := range tagger.Spans(s.Labels) {
			if sp.Attribute == "重量" && tagger.SpanText(s.Tokens, sp) == "2kg" {
				foundSpan = true
			}
		}
	}
	if !foundSpan {
		t.Fatal("seed value occurrence not labeled in text")
	}
}

func TestLabelSentencesMultiToken(t *testing.T) {
	cfg := Config{}.WithDefaults()
	sents := SplitDocument(doc("p1", "<p>シャッタースピードは1/4000秒〜30秒です。</p>"), cfg)
	pairs := []Candidate{{Attr: "シャッタースピード", Value: "1/4000秒〜30秒"}}
	seqs := labelSentences(t, sents, pairs, nil, cfg)
	var got string
	for _, s := range seqs {
		for _, sp := range tagger.Spans(s.Labels) {
			got = tagger.SpanText(s.Tokens, sp)
		}
	}
	if got != "1/4000秒〜30秒" {
		t.Fatalf("multiword span = %q", got)
	}
}

func TestLabelSentencesAllowedFilter(t *testing.T) {
	cfg := Config{}.WithDefaults()
	sents := SplitDocument(doc("p1", "<p>重量は2kgです。</p>"), cfg)
	pairs := []Candidate{{Attr: "重量", Value: "2kg"}}
	// Allowed set for a different document: nothing may be labeled.
	allowed := map[string]map[string]bool{"other": {"重量\x002kg": true}}
	seqs := labelSentences(t, sents, pairs, allowed, cfg)
	for _, s := range seqs {
		if len(tagger.Spans(s.Labels)) != 0 {
			t.Fatal("label leaked past allowed filter")
		}
	}
	// Allowed for p1: the span appears.
	allowed = map[string]map[string]bool{"p1": {"重量\x002kg": true}}
	seqs = labelSentences(t, sents, pairs, allowed, cfg)
	var n int
	for _, s := range seqs {
		n += len(tagger.Spans(s.Labels))
	}
	if n == 0 {
		t.Fatal("allowed span not labeled")
	}
}

func TestLongestMatchWins(t *testing.T) {
	cfg := Config{}.WithDefaults()
	sents := SplitDocument(doc("p1", "<p>重量は2.5kgです。</p>"), cfg)
	pairs := []Candidate{
		{Attr: "重量", Value: "5kg"},
		{Attr: "重量", Value: "2.5kg"},
	}
	seqs := labelSentences(t, sents, pairs, nil, cfg)
	var got string
	for _, s := range seqs {
		for _, sp := range tagger.Spans(s.Labels) {
			got = tagger.SpanText(s.Tokens, sp)
		}
	}
	if got != "2.5kg" {
		t.Fatalf("matched %q, want the longer 2.5kg", got)
	}
}

func TestSplitDocumentTokenizesAndTags(t *testing.T) {
	cfg := Config{}.WithDefaults()
	sents := SplitDocument(doc("p1", "<p>重量は2kgです。カラーはレッドです。</p>"), cfg)
	if len(sents) != 2 {
		t.Fatalf("sentences = %d, want 2", len(sents))
	}
	for _, s := range sents {
		if len(s.Tokens) != len(s.PoS) || len(s.Tokens) == 0 {
			t.Fatalf("bad sentence %+v", s)
		}
		if s.DocID != "p1" {
			t.Fatal("doc id lost")
		}
	}
}
