// Package synth exposes the synthetic e-commerce corpus generator publicly:
// category schemas modelled on the paper's 21 evaluation categories (18
// Japanese, 3 German), merchant-style page rendering, query logs, and the
// planted ground truth that package metrics judges against.
//
// The generator substitutes for the paper's proprietary Rakuten data; see
// DESIGN.md §1 for the substitution argument and §7 for how each synthetic
// phenomenon maps to a paper finding.
package synth

import (
	"repro/internal/gen"
	"repro/internal/seed"
)

// Category is a product-category schema.
type Category = gen.Category

// Attribute is one attribute schema within a category.
type Attribute = gen.Attribute

// Corpus is a generated dataset: pages, query log, planted truth, and the
// referee's alias table and value domains.
type Corpus = gen.Corpus

// Page is one generated product page: the pipeline's input document, so
// Corpus.Pages serves as pae.Corpus.Documents as is.
type Page = seed.Document

// TruthTriple is one planted referee judgment.
type TruthTriple = gen.TruthTriple

// Options configures generation.
type Options = gen.Options

// Generate renders the corpus for one category.
func Generate(cat Category, opt Options) *Corpus { return gen.Generate(cat, opt) }

// Merge combines corpora into a heterogeneous parent category (§VIII-E).
func Merge(name string, parts ...*Corpus) *Corpus { return gen.Merge(name, parts...) }

// CategoryByName looks up a built-in category schema.
func CategoryByName(name string) (Category, bool) { return gen.CategoryByName(name) }

// JapaneseCategories returns the 18 Japanese evaluation categories.
func JapaneseCategories() []Category { return gen.JapaneseCategories() }

// GermanCategories returns the 3 German evaluation categories.
func GermanCategories() []Category { return gen.GermanCategories() }

// TableCategories returns the 8 categories of the paper's Tables I–III.
func TableCategories() []Category { return gen.TableCategories() }

// NormalizeValue canonicalises a value string the way the referee matches
// values (spaces removed, latin lower-cased).
func NormalizeValue(v string) string { return gen.NormalizeValue(v) }
