package gen

import (
	"context"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/faultinject"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/seed"
	"repro/internal/text"
	"repro/internal/workload"
)

// TruthTriple is one referee judgment, playing the role of the paper's
// human-annotated truth sample: the page either genuinely states the value
// for the product (Correct) or states it in a misleading context — secondary
// product, shipping weight, junk cell — that an annotator would reject.
// Attribute is canonical and Value is normalised (see NormalizeValue).
type TruthTriple struct {
	ProductID string
	Attribute string
	Value     string
	Correct   bool
}

// Corpus is the generated dataset for one category (or a merged parent
// category): pages, query log, planted truth, and the referee's schema
// knowledge (alias table and per-attribute value domains).
type Corpus struct {
	Name    string
	Lang    string
	Pages   []seed.Document
	Queries []string
	Truth   []TruthTriple
	// Workload records the page shape the corpus holds; the zero value means
	// detail-page, so every pre-refactor corpus keeps its meaning.
	Workload workload.Kind
	// Lexicon is the distant-supervision seed for title corpora: known
	// <attribute, value> pairs matched against the titles in place of
	// dictionary-table harvesting. Empty on detail-page corpora.
	Lexicon []seed.LexiconEntry
	// Aliases maps every attribute surface form to its canonical name.
	Aliases map[string]string
	// Domains maps canonical attribute names to the set of normalised
	// values actually rendered somewhere in the corpus.
	Domains map[string]map[string]bool
	// CanonicalAttrs lists the canonical attribute names.
	CanonicalAttrs []string
}

// Options configures corpus generation.
type Options struct {
	Seed  uint64
	Items int // overrides Category.Items when > 0
	// IDOffset shifts the page-ID index: page i is minted as index
	// i+IDOffset. Delta ingestion (paegen -append) sets it to the existing
	// corpus's page count so appended product IDs never collide with
	// committed ones. Zero (the default) reproduces historical IDs exactly.
	IDOffset int
	// Workers bounds how many pages are synthesised concurrently; zero means
	// one per CPU. Every page draws from its own RNG stream whose seed is
	// taken sequentially from the corpus generator before any page renders,
	// so the corpus is byte-identical for every Workers value.
	Workers int
	// Inject is an optional fault-injection hook fired once per page
	// (faultinject.StageGenPage); nil disables injection.
	Inject *faultinject.Injector
}

// NormalizeValue canonicalises a value string for truth matching: spaces
// removed, latin letters lower-cased. Both the generator (when planting
// truth) and the evaluator (when judging system triples) use it, so that
// "2,5 kg" and the span text "2,5kg" compare equal.
func NormalizeValue(v string) string {
	var sb strings.Builder
	for _, r := range v {
		if unicode.IsSpace(r) {
			continue
		}
		sb.WriteRune(unicode.ToLower(r))
	}
	return sb.String()
}

// CanonicalValue reports whether value is in the rendered domain of the
// canonical attribute — the referee's notion of a valid <attribute, value>
// association (the "Precision Pairs" judgment of Table I).
func (c *Corpus) CanonicalValue(attr, value string) bool {
	dom, ok := c.Domains[c.Canon(attr)]
	return ok && dom[NormalizeValue(value)]
}

// Canon maps an attribute surface form to its canonical name (identity for
// unknown names).
func (c *Corpus) Canon(attr string) string {
	if canon, ok := c.Aliases[attr]; ok {
		return canon
	}
	return attr
}

// Generate renders the full synthetic corpus for one category.
func Generate(cat Category, opt Options) *Corpus {
	c, err := GenerateStreamCtx(context.Background(), cat, opt, nil)
	if err != nil {
		// Only a canceled context or an armed fault injector can fail
		// generation, and Generate supplies neither.
		panic(err)
	}
	return c
}

// PageResult is one rendered page together with its planted truth judgments,
// delivered in page order by GenerateStreamCtx.
type PageResult struct {
	Page  seed.Document
	Truth []TruthTriple
}

// genChunk bounds how many pages are rendered (and therefore resident)
// between ordered emissions. It never changes output — per-page RNG seeds
// are drawn before any page renders — only peak memory.
const genChunk = 256

// GenerateStreamCtx renders the corpus in bounded-memory chunks, invoking
// emit once per page in page order — the streaming entry point paegen uses
// to write shards without ever materialising the whole corpus. Pages render
// concurrently inside each chunk (Options.Workers); generation stops with
// the error when ctx is canceled or the fault injector fires. Every per-page
// draw happens up front on the corpus RNG stream, so the corpus is
// byte-identical for every worker count and chunking.
//
// The emit callback also receives each page's truth judgments, so callers
// can stream them to a sidecar; the same judgments accumulate in the
// returned Corpus (they feed query sampling and the referee's value
// domains). The returned Corpus carries everything except the page bodies:
// with a non-nil emit, Corpus.Pages stays nil.
func GenerateStreamCtx(ctx context.Context, cat Category, opt Options, emit func(PageResult) error) (*Corpus, error) {
	if cat.Merchants <= 0 {
		cat.Merchants = 10
	}
	return generate(ctx, cat, opt, emit, "%s-%05d", 0,
		func(_ *Corpus, rng *mat.RNG) (func(*mat.RNG) int, pageBuilder) {
			merchants := newMerchants(cat, rng)
			templates := templatesFor(cat.Lang)
			pick := func(rng *mat.RNG) int { return rng.Intn(len(merchants)) }
			return pick, func(pid string, m int, rng *mat.RNG, sink *pageSink) seed.Document {
				return buildPage(&cat, pid, merchants[m], templates, rng, sink)
			}
		})
}

// pageBuilder renders one page from its per-page pick and private RNG,
// planting its truth judgments and domain values into sink.
type pageBuilder func(pid string, pick int, rng *mat.RNG, sink *pageSink) seed.Document

// generate is the chunked body both workloads share. The corpus RNG, seeded
// from opt.Seed, the category name and salt, draws in a fixed order: first
// whatever prepare draws before any page (merchants, or the title lexicon),
// then per page in page order the optional pick (nil for none) and the
// page's private RNG seed, then the query seed. Pages named by idFmt over
// (category slug, index+IDOffset) then render concurrently inside each
// chunk without perturbing any draw sequence, and merge in page order.
func generate(ctx context.Context, cat Category, opt Options, emit func(PageResult) error,
	idFmt string, salt uint64,
	prepare func(c *Corpus, rng *mat.RNG) (pick func(*mat.RNG) int, build pageBuilder)) (*Corpus, error) {
	items := cat.Items
	if opt.Items > 0 {
		items = opt.Items
	}
	seedV := opt.Seed
	if seedV == 0 {
		seedV = 1
	}
	rng := mat.NewRNG(seedV ^ hashString(cat.Name) ^ salt)

	corpus := &Corpus{
		Name:    cat.Name,
		Lang:    cat.Lang,
		Aliases: make(map[string]string),
		Domains: make(map[string]map[string]bool),
	}
	for i := range cat.Attributes {
		a := &cat.Attributes[i]
		corpus.CanonicalAttrs = append(corpus.CanonicalAttrs, a.Name)
		corpus.Domains[a.Name] = make(map[string]bool)
		for _, al := range a.Aliases {
			corpus.Aliases[al] = a.Name
		}
	}
	pick, build := prepare(corpus, rng)

	type pageJob struct {
		pid  string
		pick int
		seed uint64
	}
	jobs := make([]pageJob, items)
	for i := range jobs {
		j := &jobs[i]
		j.pid = fmt.Sprintf(idFmt, slug(cat.Name), i+opt.IDOffset)
		if pick != nil {
			j.pick = pick(rng)
		}
		j.seed = rng.Uint64() ^ hashString(j.pid)
	}
	querySeed := rng.Uint64()

	sinks := make([]*pageSink, genChunk)
	for base := 0; base < items; base += genChunk {
		n := min(items-base, genChunk)
		err := par.ForEach(ctx, opt.Workers, n, func(i int) error {
			if err := opt.Inject.Fire(faultinject.StageGenPage); err != nil {
				return err
			}
			j := &jobs[base+i]
			sink := &pageSink{truthSeen: make(map[string]bool)}
			sink.page = build(j.pid, j.pick, mat.NewRNG(j.seed), sink)
			sinks[i] = sink
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, s := range sinks[:n] {
			corpus.Truth = append(corpus.Truth, s.truth...)
			for _, dv := range s.domains {
				corpus.Domains[dv[0]][dv[1]] = true
			}
			if emit != nil {
				if err := emit(PageResult{Page: s.page, Truth: s.truth}); err != nil {
					return nil, err
				}
			} else {
				corpus.Pages = append(corpus.Pages, s.page)
			}
		}
	}

	corpus.Queries = buildQueries(corpus, items, mat.NewRNG(querySeed))
	return corpus, nil
}

// pageSink collects one page's output — rendered HTML, truth judgments, and
// the domain values it made real — for the ordered merge after the pool. The
// truth dedup that used to live on the corpus is page-local here, which is
// equivalent because every truth key starts with the page's unique product ID.
type pageSink struct {
	page      seed.Document
	truthSeen map[string]bool
	truth     []TruthTriple
	domains   [][2]string // (canonical attribute, normalised value), in draw order
}

func (s *pageSink) addDomain(attr, value string) {
	s.domains = append(s.domains, [2]string{attr, NormalizeValue(value)})
}

func (s *pageSink) addTruth(pid, attr, value string, correct bool) {
	nv := NormalizeValue(value)
	key := pid + "\x00" + attr + "\x00" + nv
	if s.truthSeen[key] {
		return
	}
	// A trap judgment never overrides a genuine statement: if the page
	// truly states the value, the annotator marks it correct.
	if !correct {
		if s.truthSeen[pid+"\x00"+attr+"\x00"+nv+"\x00c"] {
			return
		}
	}
	s.truthSeen[key] = true
	if correct {
		s.truthSeen[key+"\x00c"] = true
	}
	s.truth = append(s.truth, TruthTriple{
		ProductID: pid, Attribute: attr, Value: nv, Correct: correct,
	})
}

// drawValues draws the product's own value for every attribute, recording
// each in the domains, and returns them with the brand attribute's index
// (-1 when the category has none).
func (s *pageSink) drawValues(cat *Category, rng *mat.RNG) (values []string, brandIdx int) {
	values = make([]string, len(cat.Attributes))
	brandIdx = -1
	for j := range cat.Attributes {
		values[j] = renderValue(&cat.Attributes[j], cat.Lang, rng)
		s.addDomain(cat.Attributes[j].Name, values[j])
		if cat.Attributes[j].Name == cat.BrandAttr {
			brandIdx = j
		}
	}
	return values, brandIdx
}

// foreignValue draws a random attribute and a value for it that is not the
// product's own — one belonging to a secondary or compatible product — and
// records it in the domains and as a rejected truth judgment.
func (s *pageSink) foreignValue(cat *Category, pid string, values []string, rng *mat.RNG) (int, string) {
	j := rng.Intn(len(cat.Attributes))
	a := &cat.Attributes[j]
	sv := renderValue(a, cat.Lang, rng)
	for sv == values[j] {
		sv = renderValue(a, cat.Lang, rng)
	}
	s.addDomain(a.Name, sv)
	s.addTruth(pid, a.Name, sv, false)
	return j, sv
}

// rejectValueLike judges every value-like token of the given filler texts
// as incorrect for every attribute, so an over-eager tagger that extracts
// one counts as wrong instead of falling outside the truth sample.
func (s *pageSink) rejectValueLike(cat *Category, pid string, texts []string) {
	for _, f := range texts {
		for _, tok := range valueLikeTokens(f, cat.Lang) {
			for j := range cat.Attributes {
				s.addTruth(pid, cat.Attributes[j].Name, tok, false)
			}
		}
	}
}

// merchant is one seller style: a fixed alias per attribute, two favourite
// statement templates, and a sloppiness bias. Per-merchant phrasing is what
// makes first-iteration coverage partial — the seed only exposes the model
// to the phrasings of merchants whose pages carry dictionary tables, and
// later iterations discover the rest, which is the bootstrap effect the
// paper measures in Figure 3.
type merchant struct {
	alias     []string // per attribute index
	tmpls     [2]int
	sloppy    float64
	hasTables bool
}

func newMerchants(cat Category, rng *mat.RNG) []merchant {
	nTmpl := len(templatesFor(cat.Lang))
	ms := make([]merchant, cat.Merchants)
	// Dictionary tables are a merchant habit, not a per-page coin flip: the
	// fraction of table-using merchants is chosen so that the expected
	// per-page table rate matches DictTableProb. Because the initial seed
	// can only learn the phrasings of table-using merchants, first-
	// iteration coverage starts partial and the bootstrap earns the rest —
	// the growth the paper's Figures 3 and 5 measure.
	tableFrac := cat.DictTableProb / tableRateWithinMerchant
	numTable := int(tableFrac*float64(cat.Merchants) + 0.5)
	if numTable == 0 && cat.DictTableProb > 0 {
		numTable = 1 // every category has at least one table-using merchant
	}
	if numTable > cat.Merchants {
		numTable = cat.Merchants
	}
	tablePerm := rng.Perm(cat.Merchants)
	for i := range ms {
		al := make([]string, len(cat.Attributes))
		for j := range cat.Attributes {
			names := cat.Attributes[j].Aliases
			al[j] = names[rng.Intn(len(names))]
		}
		ms[i] = merchant{
			alias:  al,
			tmpls:  [2]int{rng.Intn(nTmpl), rng.Intn(nTmpl)},
			sloppy: rng.Float64() * cat.Noise,
		}
	}
	for _, idx := range tablePerm[:numTable] {
		ms[idx].hasTables = true
	}
	return ms
}

// tableRateWithinMerchant is how often a table-using merchant actually
// renders the table on a given page.
const tableRateWithinMerchant = 0.65

// buildPage renders one product page and plants its truth triples and domain
// values into the page-local sink.
func buildPage(cat *Category, pid string, m merchant,
	templates []string, rng *mat.RNG, sink *pageSink) seed.Document {

	addTruth := sink.addTruth
	values, brandIdx := sink.drawValues(cat, rng)

	// Terse merchants write almost nothing beyond the title — the paper's
	// §VIII-D observation that "not every product description contains
	// attribute information" and the reason coverage never saturates.
	terse := rng.Float64() < 0.15+0.45*cat.Noise
	mentionScale := 1.0
	if terse {
		mentionScale = 0.12
	}

	// Title: usually the brand attribute's own value (consistent with the
	// body); occasionally a decorative shop brand that belongs to no
	// attribute — the paper's secondary-entity error source in miniature.
	title := cat.Noun
	switch {
	case brandIdx >= 0 && !terse && rng.Float64() < 0.55:
		title = values[brandIdx] + " " + cat.Noun
		addTruth(pid, cat.BrandAttr, values[brandIdx], true)
	case rng.Float64() < 0.08+0.4*cat.Noise:
		shop := cat.Brands[rng.Intn(len(cat.Brands))]
		title = shop + " " + cat.Noun
		if brandIdx >= 0 && shop != values[brandIdx] {
			addTruth(pid, cat.BrandAttr, shop, false)
		}
	}
	// A minority of titles surface one more attribute value.
	for j := range cat.Attributes {
		if j != brandIdx && rng.Float64() < 0.05 {
			title += " " + values[j]
			addTruth(pid, cat.Attributes[j].Name, values[j], true)
			break
		}
	}

	var sentences []string
	var fillersUsed []string
	pushFiller := func() {
		if len(cat.FillerSentences) > 0 {
			f := cat.FillerSentences[rng.Intn(len(cat.FillerSentences))]
			sentences = append(sentences, f)
			fillersUsed = append(fillersUsed, f)
		}
	}
	pushFiller()
	for j := range cat.Attributes {
		a := &cat.Attributes[j]
		if rng.Float64() < a.MentionProb*mentionScale {
			if rng.Float64() < 0.15 {
				// Bare statement: the value without its attribute name.
				bare := bareTemplatesFor(cat.Lang)
				tmpl := bare[rng.Intn(len(bare))]
				sentences = append(sentences, strings.Replace(tmpl, "%v", values[j], 1))
			} else {
				tmpl := templates[m.tmpls[rng.Intn(2)]]
				if rng.Float64() < 0.2 {
					tmpl = templates[rng.Intn(len(templates))]
				}
				sentences = append(sentences, renderStatement(tmpl, m.alias[j], values[j]))
			}
			addTruth(pid, a.Name, values[j], true)
		}
		// Trap sentences: misleading contexts whose extraction an annotator
		// rejects.
		for _, trap := range a.TrapSentences {
			if rng.Float64() < cat.Noise*0.5 {
				tv := trapValue(a, values[j], cat.Lang, rng)
				sentences = append(sentences, strings.Replace(trap, "%v", tv, 1))
				addTruth(pid, a.Name, tv, false)
			}
		}
		if rng.Float64() < 0.3 {
			pushFiller()
		}
	}
	// Secondary-product block.
	if rng.Float64() < cat.Noise*0.4 && len(cat.Attributes) > 0 {
		j, sv := sink.foreignValue(cat, pid, values, rng)
		sentences = append(sentences, secondaryBlock(cat.Lang,
			cat.Brands[rng.Intn(len(cat.Brands))], cat.Noun, m.alias[j], sv))
	}
	pushFiller()

	// Dictionary table on a category-dependent minority of pages.
	var tableRows [][2]string
	if m.hasTables && rng.Float64() < tableRateWithinMerchant {
		for j := range cat.Attributes {
			a := &cat.Attributes[j]
			if rng.Float64() >= a.TableProb {
				continue
			}
			if rng.Float64() < m.sloppy*0.3 {
				junk := junkCellValues(cat.Lang)
				jv := junk[rng.Intn(len(junk))]
				tableRows = append(tableRows, [2]string{m.alias[j], jv})
				addTruth(pid, a.Name, jv, false)
				continue
			}
			// Sloppy merchants sometimes paste another attribute's value
			// into the cell; these frequent-but-wrong values survive the
			// seed value-cleaning and keep Table I's triple precision
			// below 100% in noisy categories, as in the paper.
			if rng.Float64() < m.sloppy*0.35 && len(cat.Attributes) > 1 {
				j2 := rng.Intn(len(cat.Attributes))
				for j2 == j {
					j2 = rng.Intn(len(cat.Attributes))
				}
				tableRows = append(tableRows, [2]string{m.alias[j], values[j2]})
				addTruth(pid, a.Name, values[j2], false)
				continue
			}
			tableRows = append(tableRows, [2]string{m.alias[j], values[j]})
			addTruth(pid, a.Name, values[j], true)
		}
		if len(tableRows) == 1 {
			tableRows = nil // single-row tables are layout, not dictionaries
		}
	}

	// The paper's truth sample is built from an early system version's
	// output, so annotators have judged (and rejected) the plausible false
	// positives too — extractions pairing a marketing-filler token with any
	// attribute. Without these judgments an over-tagging model would score
	// deceptively well, because its hallucinations would fall outside the
	// truth sample instead of counting as incorrect.
	sink.rejectValueLike(cat, pid, fillersUsed)

	return seed.Document{ID: pid, HTML: pageHTML(title, sentences, tableRows)}
}

// valueLikeTokens returns the tokens of a filler sentence that an
// over-eager tagger plausibly extracts as attribute values: katakana runs
// and long latin words.
func valueLikeTokens(s, lang string) []string {
	var out []string
	for _, tok := range text.ForLanguage(lang).Tokenize(s) {
		switch tok.Script {
		case text.ScriptKatakana:
			if len([]rune(tok.Text)) >= 3 {
				out = append(out, tok.Text)
			}
		case text.ScriptLatin:
			if len([]rune(tok.Text)) >= 4 {
				out = append(out, tok.Text)
			}
		}
	}
	return out
}

// trapValue picks the misleading value used in a trap sentence: one of the
// attribute's explicit distractors, or a fresh value different from the
// product's own.
func trapValue(a *Attribute, own, lang string, rng *mat.RNG) string {
	if len(a.TrapValues) > 0 {
		return a.TrapValues[rng.Intn(len(a.TrapValues))]
	}
	for i := 0; i < 8; i++ {
		if v := renderValue(a, lang, rng); v != own {
			return v
		}
	}
	return renderValue(a, lang, rng)
}

// buildQueries samples the query log: mostly real values (popularity-
// weighted by how often they were stated), some brand+noun queries, some
// junk.
func buildQueries(c *Corpus, items int, rng *mat.RNG) []string {
	var queries []string
	correct := make([]TruthTriple, 0, len(c.Truth))
	for _, t := range c.Truth {
		if t.Correct {
			correct = append(correct, t)
		}
	}
	n := 2 * items
	for i := 0; i < n && len(correct) > 0; i++ {
		v := correct[rng.Intn(len(correct))].Value
		// Shoppers query round values ("2kg"), almost never exact decimals
		// ("2.3kg"); this skew is why decimal shapes vanish from the seed
		// unless value diversification re-admits them (§VIII-A).
		if strings.ContainsAny(v, ".,") && rng.Float64() < 0.9 {
			continue
		}
		queries = append(queries, v)
	}
	for i := 0; i < items/3; i++ {
		queries = append(queries, fmt.Sprintf("junkquery%d", rng.Intn(50)))
	}
	return queries
}

// Merge combines several corpora into one heterogeneous parent category, the
// §VIII-E setting (Baby Goods ⊃ carriers + clothes + toys). Alias tables and
// value domains are unioned; on alias conflicts the first corpus wins, which
// mirrors how a real parent taxonomy inherits ambiguity.
func Merge(name string, parts ...*Corpus) *Corpus {
	out := &Corpus{
		Name:    name,
		Aliases: make(map[string]string),
		Domains: make(map[string]map[string]bool),
	}
	seenAttr := make(map[string]bool)
	for _, p := range parts {
		if out.Lang == "" {
			out.Lang = p.Lang
		}
		out.Pages = append(out.Pages, p.Pages...)
		out.Queries = append(out.Queries, p.Queries...)
		out.Truth = append(out.Truth, p.Truth...)
		for alias, canon := range p.Aliases {
			if _, ok := out.Aliases[alias]; !ok {
				out.Aliases[alias] = canon
			}
		}
		for attr, dom := range p.Domains {
			if out.Domains[attr] == nil {
				out.Domains[attr] = make(map[string]bool)
			}
			for v := range dom {
				out.Domains[attr][v] = true
			}
		}
		for _, a := range p.CanonicalAttrs {
			if !seenAttr[a] {
				seenAttr[a] = true
				out.CanonicalAttrs = append(out.CanonicalAttrs, a)
			}
		}
	}
	return out
}

func slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(name, " ", "-"), "(", ""))
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
