package gen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// corpusDigest is a SHA-256 over everything a generated corpus carries: the
// header, pages, truth, queries, lexicon and the sorted value domains.
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	put := func(f string, a ...any) { fmt.Fprintf(h, f+"\n", a...) }
	put("corpus %q %q %q", c.Name, c.Lang, c.Workload)
	for _, p := range c.Pages {
		put("page %q %q", p.ID, p.HTML)
	}
	for _, t := range c.Truth {
		put("truth %q %q %q %v", t.ProductID, t.Attribute, t.Value, t.Correct)
	}
	for _, q := range c.Queries {
		put("query %q", q)
	}
	for _, e := range c.Lexicon {
		put("lexicon %q %q", e.Attr, e.Value)
	}
	attrs := make([]string, 0, len(c.Domains))
	for a := range c.Domains {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		vals := make([]string, 0, len(c.Domains[a]))
		for v := range c.Domains[a] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		put("domain %q %q", a, vals)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins the generator's output across versions: a detail
// and a title corpus at a fixed seed, on 2 workers, at ID offsets 0 and 37,
// both materialised and streamed through emit. The 300 items span two render
// chunks. A change to any draw, template or merge order changes a digest.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name     string
		cat      Category
		offset   int
		generate func(context.Context, Category, Options, func(PageResult) error) (*Corpus, error)
		want     string
	}{
		{"detail", VacuumCleaner(), 0, GenerateStreamCtx, "e395a911de75bb84205cb8fe94df3c84478eaf2762582b4ed814db100f51d8f2"},
		{"detail+37", VacuumCleaner(), 37, GenerateStreamCtx, "f32ca9c5e211ab09fee9e0b13c17e08e69168e333fed2e091a7a722df8c9424f"},
		{"title", GardenDE(), 0, GenerateTitlesStreamCtx, "a546537869c56db850a20b3f7a10afea7e092834a5b4005834bbb4dbe9835188"},
		{"title+37", GardenDE(), 37, GenerateTitlesStreamCtx, "673c9d82f47b08f86d509cf843234d49836065ba227b393eac1d04e9cbf379c1"},
	}
	for _, tc := range cases {
		opt := Options{Seed: 5, Items: 300, Workers: 2, IDOffset: tc.offset}
		whole, err := tc.generate(context.Background(), tc.cat, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := corpusDigest(whole); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
		var streamed []PageResult
		c, err := tc.generate(context.Background(), tc.cat, opt, func(p PageResult) error {
			streamed = append(streamed, p)
			return nil
		})
		if err != nil {
			t.Fatalf("%s stream: %v", tc.name, err)
		}
		for _, p := range streamed {
			c.Pages = append(c.Pages, p.Page)
		}
		if got := corpusDigest(c); got != tc.want {
			t.Errorf("%s stream: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
