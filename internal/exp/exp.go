// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (§VI–VIII), each regenerating the corresponding
// rows or series on the synthetic corpus, plus the extensions the paper
// proposes. The cmd/paebench CLI is a thin wrapper around this package; the
// measurement harness is perfbench (BENCHMARK.json), which does not link it.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/seed"
)

// Settings controls experiment scale. The zero value reproduces the default
// calibration recorded in EXPERIMENTS.md.
type Settings struct {
	// Seed drives corpus generation and model initialisation.
	Seed uint64
	// Items per category; 0 uses the scaled-down default of 240. (The
	// paper's categories average 10k items; shapes are preserved at this
	// scale, see DESIGN.md.)
	Items int
	// Iterations of the bootstrap cycle for the multi-iteration
	// experiments; 0 means the paper's 5.
	Iterations int
	// Workers bounds every worker pool a run touches — corpus generation,
	// the pipeline stages, and paebench's experiment-level fan-out; zero
	// means one per CPU. Parallelism never changes experiment output, so
	// Workers is deliberately excluded from the run-cache key: runs at
	// different worker counts share cache entries.
	Workers int
}

func (s Settings) withDefaults() Settings {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Items == 0 {
		s.Items = 240
	}
	if s.Iterations == 0 {
		s.Iterations = 5
	}
	return s
}

func (s Settings) key() string {
	return fmt.Sprintf("%d/%d/%d", s.Seed, s.Items, s.Iterations)
}

// Experiment is one registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Settings) string
}

// Experiments lists every reproducible artifact: the paper's tables and
// figures in paper order, then the title workload, the corpus-memory
// measurement, and the extensions of §VIII/§IX. `paebench -exp all` prints
// them in this order.
var Experiments = []Experiment{
	{"table1", "Table I — seed precision and coverage", TableI},
	{"figure3", "Figure 3 — CRF precision/coverage across bootstrap iterations, ± cleaning", Figure3},
	{"table2", "Table II — precision after the first bootstrap iteration", TableII},
	{"table3", "Table III — coverage after the first bootstrap iteration", TableIII},
	{"figure4", "Figure 4 — average triples per product (CRF vs RNN, cleaned)", Figure4},
	{"figure5", "Figure 5 — total triples across iterations (CRF + cleaning)", Figure5},
	{"figure6", "Figure 6 — triple growth after iteration 1 for RNN configurations", Figure6},
	{"table4", "Table IV — module ablations on Vacuum Cleaner and Garden", TableIV},
	{"figure7", "Figure 7 — camera attribute coverage, global vs specialised", Figure7},
	{"figure8", "Figure 8 — vacuum attribute coverage, global vs specialised", Figure8},
	{"german", "§VII — German categories (mailbox, coffee machines, garden)", German},
	{"complexattrs", "§VIII-C — complex-attribute precision (cameras, vacuums)", ComplexAttributes},
	{"semcore", "§VIII-B — semantic-core size parameter exploration", SemanticCoreSweep},
	{"hetero", "§VIII-E — homogeneous vs heterogeneous categories", Heterogeneous},
	{"diversification", "§VIII-A — impact of value diversification on Vacuum Cleaner", Diversification},
	{"title", "Title workload — distant-supervision bootstrap on listing titles (More, arXiv:1608.04670)", TitleWorkload},
	{"corpusmem", "corpus memory — peak heap: in-memory vs streamed+spilled bootstrap", CorpusMemory},
	{"ensemble", "§IX extension — CRF+RNN model combination", EnsembleCombination},
	{"confidence", "extension — confidence-thresholded tagging sweep", ConfidenceSweep},
	{"recall", "extension — true recall vs the paper's coverage proxy", RecallAudit},
	{"homogenize", "§IX extension — attribute-value homogenisation", Homogenization},
	{"partition", "§VIII-D extension — attribute partition optimisation", PartitionOptimization},
	{"hitl", "§VIII extension — human-in-the-loop correction ceiling", HumanInTheLoop},
	{"features", "extension — CRF feature-template and regulariser ablation", FeatureAblation},
}

// ByID returns the registered experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared run plumbing ----

// categoryRun bundles everything downstream analyses need from one pipeline
// execution on one category.
type categoryRun struct {
	corpus *gen.Corpus
	truth  *eval.Truth
	result *core.Result
}

func (r *categoryRun) products() int { return len(r.corpus.Pages) }

// cacheEntry is one singleflight slot of the run cache: the first caller of
// a key executes the run inside the sync.Once; concurrent callers of the
// same key block on the Once instead of duplicating the pipeline run. A
// panic during the run is stored and re-panicked in every caller, so a
// broken configuration fails loudly rather than caching a nil run.
type cacheEntry struct {
	once     sync.Once
	run      *categoryRun
	panicked any
}

var (
	cacheMu  sync.Mutex
	runCache = map[string]*cacheEntry{}
)

// runCategory executes the pipeline on a generated category corpus,
// memoising by (settings, category, config fingerprint) so experiments that
// share a configuration — e.g. Tables II and III — pay for it once per
// process, even when experiments run concurrently.
func runCategory(cat gen.Category, cfg core.Config, s Settings, fingerprint string) *categoryRun {
	s = s.withDefaults()
	key := s.key() + "|" + cat.Name + "|" + fingerprint
	cacheMu.Lock()
	e, ok := runCache[key]
	if !ok {
		e = &cacheEntry{}
		runCache[key] = e
	}
	cacheMu.Unlock()

	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
			}
		}()
		if cfg.Parallelism == 0 {
			cfg.Parallelism = s.Workers
		}
		gc := gen.Generate(cat, gen.Options{Seed: s.Seed, Items: s.Items, Workers: s.Workers})
		res, err := core.New(cfg).Run(toCorpus(gc))
		if err != nil {
			panic(fmt.Sprintf("exp: %s (%s): %v", cat.Name, fingerprint, err))
		}
		e.run = &categoryRun{corpus: gc, truth: eval.NewTruth(gc), result: res}
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.run
}

// toCorpus adapts a generated corpus to the pipeline input.
func toCorpus(gc *gen.Corpus) core.Corpus {
	docs := make([]seed.Document, len(gc.Pages))
	for i, p := range gc.Pages {
		docs[i] = seed.Document{ID: p.ID, HTML: p.HTML}
	}
	return core.Corpus{Documents: docs, Queries: gc.Queries, Lang: gc.Lang}
}

// ---- text-table rendering ----

// table renders an aligned monospace table with a title line.
type table struct {
	title string
	head  []string
	rows  [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.head))
	for i, h := range t.head {
		widths[i] = runeLen(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && runeLen(c) > widths[i] {
				widths[i] = runeLen(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.title)
	sb.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := runeLen(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.head)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

func runeLen(s string) int { return len([]rune(s)) }

// tableCats returns the 8 categories of Tables I–III.
func tableCats() []gen.Category { return gen.TableCategories() }

func pct(v float64) string { return fmt.Sprintf("%.2f", v) }

// canonOf returns the representative surface names (as modeled by the run)
// whose canonical form matches want, e.g. the rep of {重量, 本体重量, 重さ}.
func canonOf(r *categoryRun, want string) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range r.result.Attributes {
		if r.corpus.Canon(a) == want && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}
