package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pos"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/text"
	"repro/internal/triples"
	"repro/internal/workload"
)

const (
	// servePages trains the served bundle; serving cost does not depend on
	// training size beyond the model, so a small corpus keeps set-up short.
	servePages = 200
	// backends behind the router, and closed-loop clients in front of it.
	// One client is deliberate: two varied ±15% between 3 s windows on a
	// 2-CPU machine, one ±8%.
	backends = 2
	clients  = 1
)

func setupServeDetail(ctx context.Context, e *env) (instance, error) {
	return setupServe(ctx, e, workload.DetailPage)
}

func setupServeTitle(ctx context.Context, e *env) (instance, error) {
	return setupServe(ctx, e, workload.Title)
}

// serveBench serves held-out pages through a router and two backends.
type serveBench struct {
	bundlePath string
	fp         string
	pages      []seed.Document
	bodies     [][]byte
	expected   [][]triples.Triple // in-process ExtractPage on the same bundle
	prec, cov  float64
	rig        *fleetRig
}

func setupServe(ctx context.Context, e *env, wk workload.Kind) (instance, error) {
	cat, err := detailCat()
	if err != nil {
		return nil, err
	}
	root, err := e.scratch("serve")
	if err != nil {
		return nil, err
	}
	b := &serveBench{bundlePath: filepath.Join(root, "model.paeb")}

	// Train the served bundle in memory; the serve workloads measure
	// serving, and bootstrap-detail covers reading a corpus from disk.
	opt := gen.Options{Seed: e.seed, Items: servePages}
	generate := gen.Generate
	if wk == workload.Title {
		generate = gen.GenerateTitles
	}
	tc := generate(cat, opt)
	res, err := pae.RunSource(ctx, pae.Input{
		Source: corpus.NewSliceSource(docsOf(tc)), Queries: tc.Queries, Lang: tc.Lang, Lexicon: tc.Lexicon,
	}, core.Config{Iterations: bootstrapIters, Workload: wk})
	if err != nil {
		return nil, err
	}
	if !res.StopReason.Completed() {
		return nil, fmt.Errorf("bootstrap stopped: %s", res.StopReason)
	}
	bn, err := res.Bundle()
	if err != nil {
		return nil, err
	}
	if err := bn.SaveFile(b.bundlePath); err != nil {
		return nil, err
	}
	b.fp = bn.Fingerprint()

	// The untimed pass: in-process extraction of every held-out page gives
	// the expected answer for each request and the quality figures.
	ho := heldOut(cat, wk, e.seed)
	b.pages = docsOf(ho)
	x, err := extract.Open(b.bundlePath, extract.Options{})
	if err != nil {
		return nil, err
	}
	defer x.Close()
	var all []triples.Triple
	for _, d := range b.pages {
		ts, err := x.ExtractPage(ctx, d.ID, d.HTML)
		if err != nil {
			return nil, err
		}
		b.expected = append(b.expected, ts)
		all = append(all, ts...)
		body, err := json.Marshal(serve.Request{ID: d.ID, HTML: d.HTML, Workload: wk})
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	b.prec = eval.NewTruth(ho).Judge(all).Precision()
	b.cov = eval.Coverage(all, len(b.pages))

	if b.rig, err = startFleet(b.bundlePath, false); err != nil {
		return nil, err
	}
	if err := b.warm(ctx); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warm sends one checked pass through a freshly started fleet, so
// connections, pools and lazy state are in place before timing.
func (b *serveBench) warm(ctx context.Context) error {
	m := &measurement{}
	for i := range b.pages {
		b.request(ctx, i, nil, m)
	}
	if m.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", m.failed, m.attempted)
	}
	return nil
}

// request sends page i through the fleet, times it and checks the answer
// against in-process extraction. It returns the latency in milliseconds.
func (b *serveBench) request(ctx context.Context, i int, tr *tracer, m *measurement) float64 {
	m.attempted++
	tid := ""
	var sp *active
	if tr != nil {
		sp = tr.start("client.request", 0)
		tid = fmt.Sprintf("%016x", sp.id())
		tr.setHop(tid, "client", sp.id())
	}
	began := time.Now()
	status, body, err := b.rig.post(ctx, b.bodies[i], tid)
	lat := float64(time.Since(began).Nanoseconds()) / 1e6
	sp.end()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = b.check(i, body)
	}
	if err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "page %s: %v\n", b.pages[i].ID, err)
	}
	return lat
}

// check compares a served answer with in-process extraction.
func (b *serveBench) check(i int, body []byte) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Bundle != b.fp {
		return fmt.Errorf("served by bundle %.12s, want %.12s", resp.Bundle, b.fp)
	}
	if resp.Pages != 1 || !sameTriples(resp.Triples, b.expected[i]) {
		return fmt.Errorf("served %d triples, in-process extraction gives %d", len(resp.Triples), len(b.expected[i]))
	}
	return nil
}

func sameTriples(a, b []triples.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (b *serveBench) measure(ctx context.Context, deadline time.Time, tr *tracer, m *measurement) error {
	// Tracing turns on the layers' own recorders, which are fixed when a
	// fleet starts; switching between traced and untraced restarts it.
	if b.rig.traced != (tr != nil) {
		b.rig.close()
		var err error
		if b.rig, err = startFleet(b.bundlePath, tr != nil); err != nil {
			return err
		}
		if err := b.warm(ctx); err != nil {
			return err
		}
	}
	b.rig.tr.Store(tr)
	defer b.rig.tr.Store(nil)
	// A job is one full pass over the held-out pages; the pass cut by the
	// deadline counts its requests but is not a job.
	m.jobStart()
	for i := 0; time.Now().Before(deadline) || len(m.jobs) == 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.lat = append(m.lat, b.request(ctx, i, tr, m))
		if i = (i + 1) % len(b.pages); i == 0 {
			m.jobDone(len(b.pages))
			m.jobStart()
		}
	}
	if err := checkConns(b.rig.clientConns.Load(), clients); err != nil {
		m.failed++
		fmt.Fprintln(os.Stderr, err)
	}
	return nil
}

func (b *serveBench) quality() (float64, float64) { return b.prec, b.cov }
func (b *serveBench) fingerprint() string         { return b.fp }

func (b *serveBench) layers(tree *spanTree, m *measurement, out metricSet) {
	warn := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		}
	}
	if killed, err := bundleLayers(context.Background(), b.bundlePath, b.pages, b.expected, out); err != nil {
		m.failed++
		warn(err)
	} else {
		out["cleaning.veto_killed"] = float64(killed)
	}

	var handler, overhead []float64
	for _, s := range tree.named("serve.handle") {
		handler = append(handler, float64(s.dur())/1e6)
	}
	// Client latency minus backend handler time: the client's and the
	// router's self time together.
	for _, c := range tree.named("client.request") {
		self := tree.self(c)
		for _, r := range tree.children[c.ID] {
			self += tree.self(r)
		}
		overhead = append(overhead, float64(self)/1e6)
	}
	p, err := percentile(handler, 0.5)
	warn(err)
	out["serve.handler_ms_p50"] = p
	out["serve.overhead_ms_p50"] = p - out["extract.page_ms_p50"]
	p, err = percentile(overhead, 0.5)
	warn(err)
	out["fleet.overhead_ms_p50"] = p
	p, err = percentile(m.lat, 0.99)
	warn(err)
	out["client.latency_p99_ms"] = p

	rig := b.rig
	out["serve.ready_ms"] = float64(rig.ready.Nanoseconds()) / 1e6
	fc := rig.routerRec.Snapshot().Counters
	out["fleet.retries"] = float64(fc["fleet.retries"])
	out["fleet.hedges"] = float64(fc["fleet.hedges"])
	shed := int64(0)
	for k, v := range fc {
		if strings.HasPrefix(k, "fleet.shed_") {
			shed += v
		}
	}
	out["fleet.shed"] = float64(shed)
	out["fleet.backend_conns_opened"] = float64(rig.backendConns.Load())
	out["client.requests"] = float64(m.attempted)
	out["client.failed"] = float64(m.failed)
	out["client.conns_opened"] = float64(rig.clientConns.Load())
}

func (b *serveBench) close() {
	if b.rig != nil {
		b.rig.close()
		b.rig = nil
	}
}

// replayInto runs every page through the extract layer's stages one at a
// time — split, tag, per-page veto — as Extractor.ExtractPage composes them,
// times each stage, and checks that the composition still equals
// ExtractPage's answer. It returns how many triples the veto removed.
func replayInto(ctx context.Context, bn *bundle.Bundle, pages []seed.Document, expected [][]triples.Triple, out metricSet) (int, error) {
	x, err := extract.New(bn, extract.Options{})
	if err != nil {
		return 0, err
	}
	defer x.Close()
	man := bn.Manifest
	wk := man.Workload.WithDefault()
	scfg := seed.Config{
		Tokenizer:      text.ForLanguage(man.Lang),
		Tagger:         pos.NewTagger(),
		AggThreshold:   man.Seed.AggThreshold,
		MinValueFreq:   man.Seed.MinValueFreq,
		TopShapes:      man.Seed.TopShapes,
		ValuesPerShape: man.Seed.ValuesPerShape,
	}.WithDefaults()
	engine := extract.Engine{Model: bn.Model, MinConfidence: man.MinConfidence}
	veto := man.Veto.WithDefaults()
	veto.PopularFraction = 1 // per-page extraction has no corpus to rank against

	var pageMs []float64
	var split, tag, vet time.Duration
	var sents, toks, kept, killed int
	for i, d := range pages {
		began := time.Now()
		want, err := x.ExtractPage(ctx, d.ID, d.HTML)
		pageMs = append(pageMs, float64(time.Since(began).Nanoseconds())/1e6)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		var ss []seed.SentenceOf
		if wk == workload.Title {
			ss = seed.SplitTitle(d, scfg)
		} else {
			ss = seed.SplitDocument(d, scfg)
		}
		t1 := time.Now()
		tagged, err := engine.TagSentences(ctx, ss)
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		got, stats := cleaning.ApplyVetoFor(wk, tagged, veto)
		t3 := time.Now()
		split += t1.Sub(t0)
		tag += t2.Sub(t1)
		vet += t3.Sub(t2)
		if !sameTriples(got, want) || (expected != nil && !sameTriples(got, expected[i])) {
			return 0, fmt.Errorf("page %s: stage-by-stage replay differs from ExtractPage", d.ID)
		}
		sents += len(ss)
		for _, s := range ss {
			toks += len(s.Tokens)
		}
		kept += len(got)
		killed += stats.Removed()
	}
	n := float64(len(pages))
	p50, err := percentile(pageMs, 0.5)
	if err != nil {
		return 0, err
	}
	out["extract.page_ms_p50"] = p50
	out["extract.split_ms_per_page"] = float64(split.Nanoseconds()) / 1e6 / n
	out["extract.tag_ms_per_page"] = float64(tag.Nanoseconds()) / 1e6 / n
	out["extract.veto_ms_per_page"] = float64(vet.Nanoseconds()) / 1e6 / n
	out["extract.sentences_per_page"] = float64(sents) / n
	out["extract.tokens_per_page"] = float64(toks) / n
	out["extract.triples_per_page"] = float64(kept) / n
	return killed, nil
}

// fleetRig is two serve.Server backends and a fleet.Router, each behind its
// own loopback http.Server, plus the keep-alive client that loads them.
type fleetRig struct {
	traced    bool
	routerURL string
	hc        *http.Client
	router    *fleet.Router
	routerRec *obs.Recorder // nil untraced
	servers   []*serve.Server
	https     []*http.Server
	wg        sync.WaitGroup
	ready     time.Duration // bundle load to the first healthy /healthz

	clientConns  atomic.Int64 // connections the router accepted
	backendConns atomic.Int64 // connections the backends accepted
	tr           atomic.Pointer[tracer]
}

func startFleet(bundlePath string, traced bool) (rig *fleetRig, err error) {
	rig = &fleetRig{traced: traced}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	began := time.Now()
	var urls []string
	for i := 0; i < backends; i++ {
		cfg := serve.Config{BundlePath: bundlePath, MaxInflight: 64, Timeout: 30 * time.Second}
		if traced {
			cfg.Obs = obs.New(obs.Options{NoRuntimeStats: true})
		}
		be, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		rig.servers = append(rig.servers, be)
		url, err := rig.listen(rig.handlerSpan("serve.handle", "fleet", "", be.Handler()), &rig.backendConns)
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	fcfg := fleet.Config{Backends: urls, Seed: 1}
	if traced {
		rig.routerRec = obs.New(obs.Options{NoRuntimeStats: true})
		fcfg.Obs = rig.routerRec
	}
	if rig.router, err = fleet.New(fcfg); err != nil {
		return nil, err
	}
	// Two synchronous probe rounds take both backends to healthy before the
	// first request, as the rise threshold requires.
	rig.router.ProbeAll(context.Background())
	rig.router.ProbeAll(context.Background())
	rig.router.Start()
	if rig.routerURL, err = rig.listen(rig.handlerSpan("fleet.route", "client", "fleet", rig.router.Handler()), &rig.clientConns); err != nil {
		return nil, err
	}
	rig.hc = newLoadClient(clients)
	if err := rig.waitHealthy(); err != nil {
		return nil, err
	}
	rig.ready = time.Since(began)
	return rig, nil
}

// handlerSpan wraps h in a span named name whose parent is the span the
// previous hop registered under parentLayer for the request's trace ID; it
// registers itself under layer for the next hop.
func (rig *fleetRig) handlerSpan(name, parentLayer, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := rig.tr.Load()
		tid := r.Header.Get(obs.TraceHeader)
		if tr == nil || tid == "" || r.URL.Path != "/extract" {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.start(name, tr.hop(tid, parentLayer))
		if layer != "" {
			tr.setHop(tid, layer, sp.id())
		}
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// listen serves h on a loopback port, counting accepted connections.
func (rig *fleetRig) listen(h http.Handler, conns *atomic.Int64) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}}
	rig.https = append(rig.https, srv)
	rig.wg.Add(1)
	go func() {
		defer rig.wg.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the router's /healthz until every backend is healthy.
func (rig *fleetRig) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := rig.hc.Get(rig.routerURL + "/healthz")
		if err == nil {
			var h struct {
				Healthy int `json:"healthy"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Healthy == backends {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("fleet did not become healthy within 10s")
}

// newLoadClient returns an HTTP client that keeps at most n connections per
// host alive and never opens more.
func newLoadClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
}

// checkConns fails when the load generator opened more connections than it
// has clients: each extra one is a keep-alive connection lost, usually to an
// undrained response body, and costs a handshake plus a TIME_WAIT socket.
func checkConns(opened int64, clients int) error {
	if opened > int64(clients) {
		return fmt.Errorf("client opened %d connections for %d clients", opened, clients)
	}
	return nil
}

// post sends one /extract request and reads the whole body, so the
// keep-alive connection is reused rather than replaced.
func (rig *fleetRig) post(ctx context.Context, body []byte, tid string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rig.routerURL+"/extract", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := rig.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (rig *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rig.hc != nil {
		rig.hc.CloseIdleConnections()
	}
	// The router's listener is the last one opened; close it first so no
	// request reaches a backend that is shutting down.
	for i := len(rig.https) - 1; i >= 0; i-- {
		_ = rig.https[i].Shutdown(ctx)
	}
	if rig.router != nil {
		rig.router.Close()
	}
	for _, s := range rig.servers {
		s.Close()
	}
	rig.wg.Wait()
}
