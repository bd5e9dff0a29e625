package main

// Tracing for the in-process ledger. Every layer of the stack is
// reached through one of its public interfaces (slm.Model, the
// core.Config splitter, rag.Generator, vecdb.Embedder, vecdb.Index,
// serve.Store, cluster.Backend, cluster.NodeStore); the wrappers below
// time each call into a span and forward every optional interface the
// program type-asserts on. Spans are kept in memory and turned into
// the ledger after the run.

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rag"
	"repro/internal/serve"
	"repro/internal/slm"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// span is one timed call into a layer. req is the request it served
// (0 until attributed).
type span struct {
	layer      string
	req        int64
	start, end int64 // ns since the recorder's epoch
}

func (s span) iv() interval { return interval{s.start, s.end} }

// Layer names and their nesting depth: at each instant of a request the
// deepest active span owns the time (see partition).
var layerDepth = map[string]int{
	"serve":              0, // serve.Server method (the root span)
	"ingest":             0, // serve.Server.IngestStreamIn (root of a stream)
	"rag.retrieve":       1, // serve.Store search call
	"rag.generate":       1, // rag.Generator
	"core.split":         1, // core.Config.Split
	"serve.store_write":  1, // serve.Store write call
	"slm":                2, // slm.Model.YesProbability
	"cluster.rpc_search": 2, // cluster.Backend.SearchVector
	"cluster.rpc_apply":  2, // cluster.Backend.Apply
	"node.search":        3, // cluster.NodeStore search on a shard node
	"node.apply":         3, // cluster.NodeStore.ApplyAll on a shard node
	"vecdb.embed":        4, // vecdb.Embedder
	"vecdb.search":       4, // vecdb.Index.Search
	"vecdb.add":          4, // vecdb.Index.Add
}

// layerGroup maps span layers onto the ledger's rows.
var layerGroup = map[string]string{
	"serve": "serve", "ingest": "ingest", "serve.store_write": "serve",
	"rag.retrieve": "rag", "rag.generate": "rag",
	"core.split": "core", "slm": "slm",
	"cluster.rpc_search": "cluster", "cluster.rpc_apply": "cluster",
	"node.search": "node", "node.apply": "node",
	"vecdb.embed": "vecdb", "vecdb.search": "vecdb", "vecdb.add": "vecdb",
}

// ledgerRows are the ledger's layer rows, in report order.
var ledgerRows = []string{"serve", "rag", "core", "slm", "vecdb", "cluster", "node"}

// attachParents lists, for spans that carry neither a context nor a
// key, the layers whose spans may enclose them; such a span is
// attributed to the request of the latest-starting enclosing span.
var attachParents = map[string][]string{
	"node.search":  {"cluster.rpc_search"},
	"node.apply":   {"cluster.rpc_apply"},
	"vecdb.search": {"node.search", "rag.retrieve"},
	"vecdb.add":    {"node.apply", "serve.store_write"},
	"vecdb.embed":  {"node.apply", "serve.store_write"},
	"core.split":   {"serve"},
	"slm":          {"serve"},
	"rag.generate": {"serve"},
}

type reqKey struct{}

func withReq(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) int64 {
	id, _ := ctx.Value(reqKey{}).(int64)
	return id
}

// recorder collects spans while on. Calls that carry no context are
// tied to their request by a key the request registered: its question,
// its (question, context) pair, or its response text.
type recorder struct {
	on      atomic.Bool
	epoch   time.Time
	vectors atomic.Int64 // vectors the index searches scanned

	mu    sync.Mutex
	spans []span
	keys  map[string]int64
	owned map[int64][]string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), keys: map[string]int64{}, owned: map[int64][]string{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin returns the span start, or -1 when not recording.
func (r *recorder) begin() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.now()
}

func (r *recorder) end(layer string, req int64, start int64) {
	if start < 0 {
		return
	}
	e := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{layer, req, start, e})
	r.mu.Unlock()
}

// endKey ends a span attributed through a registered key.
func (r *recorder) endKey(layer, key string, start int64) {
	if start < 0 {
		return
	}
	e := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{layer, r.keys[key], start, e})
	r.mu.Unlock()
}

func (r *recorder) lookup(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keys[key]
}

// register ties keys to req until release(req).
func (r *recorder) register(req int64, keys ...string) {
	if req == 0 || !r.on.Load() {
		return
	}
	r.mu.Lock()
	for _, k := range keys {
		r.keys[k] = req
		r.owned[req] = append(r.owned[req], k)
	}
	r.mu.Unlock()
}

func (r *recorder) release(req int64) {
	r.mu.Lock()
	for _, k := range r.owned[req] {
		if r.keys[k] == req {
			delete(r.keys, k)
		}
	}
	delete(r.owned, req)
	r.mu.Unlock()
}

func questionKey(q string) string    { return "q\x1f" + q }
func pairKey(q, c string) string     { return "p\x1f" + q + "\x1f" + c }
func responseKey(resp string) string { return "r\x1f" + resp }

// ---- wrappers ----

type tracedModel struct {
	inner slm.Model
	rec   *recorder
}

func (m tracedModel) Name() string { return m.inner.Name() }

func (m tracedModel) YesProbability(ctx context.Context, req slm.VerifyRequest) (float64, error) {
	s := m.rec.begin()
	p, err := m.inner.YesProbability(ctx, req)
	m.rec.endKey("slm", pairKey(req.Question, req.Context), s)
	return p, err
}

// tracedSplit wraps the detector's default splitter.
func tracedSplit(rec *recorder) core.Splitter {
	return func(text string) []string {
		s := rec.begin()
		out := core.SentenceSplitter(text)
		rec.endKey("core.split", responseKey(text), s)
		return out
	}
}

// tracedGenerator also registers the drafted (question, context) pair
// and response, so the verification that follows is attributed too.
type tracedGenerator struct {
	inner rag.Generator
	rec   *recorder
}

func (g tracedGenerator) Generate(question, context string) (string, error) {
	s := g.rec.begin()
	out, err := g.inner.Generate(question, context)
	if s >= 0 {
		req := g.rec.lookup(questionKey(question))
		g.rec.end("rag.generate", req, s)
		g.rec.register(req, pairKey(question, context), responseKey(out))
	}
	return out, err
}

type tracedEmbedder struct {
	inner vecdb.Embedder
	rec   *recorder
}

func (e tracedEmbedder) Dim() int { return e.inner.Dim() }

func (e tracedEmbedder) Embed(text string) ([]float32, error) {
	s := e.rec.begin()
	v, err := e.inner.Embed(text)
	e.rec.endKey("vecdb.embed", questionKey(text), s)
	return v, err
}

// EmbedIn forwards the collection-namespaced cache entry point.
func (e tracedEmbedder) EmbedIn(collection, text string) ([]float32, error) {
	ce, ok := e.inner.(interface {
		EmbedIn(collection, text string) ([]float32, error)
	})
	if !ok {
		return e.Embed(text)
	}
	s := e.rec.begin()
	v, err := ce.EmbedIn(collection, text)
	e.rec.endKey("vecdb.embed", questionKey(text), s)
	return v, err
}

type tracedIndex struct {
	inner vecdb.Index
	rec   *recorder
}

func (x tracedIndex) Add(id int64, vec []float32) error {
	s := x.rec.begin()
	err := x.inner.Add(id, vec)
	x.rec.end("vecdb.add", 0, s)
	return err
}

func (x tracedIndex) Remove(id int64) bool { return x.inner.Remove(id) }
func (x tracedIndex) Len() int             { return x.inner.Len() }

func (x tracedIndex) Search(q []float32, k int) ([]vecdb.Result, error) {
	s := x.rec.begin()
	if s >= 0 {
		x.rec.vectors.Add(int64(x.inner.Len()))
	}
	res, err := x.inner.Search(q, k)
	x.rec.end("vecdb.search", 0, s)
	return res, err
}

// Memory and SetStageObserver forward vecdb.MemoryReporter and
// vecdb.StageObservable.
func (x tracedIndex) Memory() vecdb.IndexMemory {
	if mr, ok := x.inner.(vecdb.MemoryReporter); ok {
		return mr.Memory()
	}
	return vecdb.IndexMemory{}
}

func (x tracedIndex) SetStageObserver(fn func(stage string, seconds float64)) {
	if so, ok := x.inner.(vecdb.StageObservable); ok {
		so.SetStageObserver(fn)
	}
}

func tracedIndexFactory(rec *recorder, mk func() (vecdb.Index, error)) func() (vecdb.Index, error) {
	return func() (vecdb.Index, error) {
		x, err := mk()
		if err != nil {
			return nil, err
		}
		return tracedIndex{x, rec}, nil
	}
}

// tracedStore wraps a serve.Store. Text searches embed through query
// (the traced query-path cache) and run the vector search through
// searchVec, because the stores' own query embedders are internal;
// the store's own SearchFilteredContext does exactly these two steps.
type tracedStore struct {
	inner     serve.Store
	rec       *recorder
	query     vecdb.Embedder
	searchVec func(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error)
}

func (s *tracedStore) searchText(ctx context.Context, q string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := s.rec.begin()
	defer s.rec.end("rag.retrieve", reqOf(ctx), st)
	var vec []float32
	var err error
	if ce, ok := s.query.(interface {
		EmbedIn(collection, text string) ([]float32, error)
	}); ok {
		vec, err = ce.EmbedIn(f.Collection, q)
	} else {
		vec, err = s.query.Embed(q)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.searchVec(ctx, vec, k, f)
}

func (s *tracedStore) Add(text string, meta map[string]string) (int64, error) {
	return s.inner.Add(text, meta)
}
func (s *tracedStore) Search(q string, k int) ([]vecdb.Hit, error) {
	return s.searchText(context.Background(), q, k, vecdb.Filter{})
}
func (s *tracedStore) Len() int { return s.inner.Len() }
func (s *tracedStore) AddBulk(texts []string) ([]int64, error) {
	return s.AddBulkContext(context.Background(), texts)
}
func (s *tracedStore) AddBulkDocs(docs []vecdb.Document) ([]int64, error) {
	return s.AddBulkDocsContext(context.Background(), docs)
}
func (s *tracedStore) SearchVector(vec []float32, k int) ([]vecdb.Hit, error) {
	return s.inner.SearchVector(vec, k)
}
func (s *tracedStore) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	return s.inner.SearchVectorFiltered(vec, k, f)
}
func (s *tracedStore) Get(id int64) (vecdb.Document, error) { return s.inner.Get(id) }
func (s *tracedStore) Delete(id int64) error                { return s.inner.Delete(id) }
func (s *tracedStore) DeleteIn(collection string, id int64) error {
	return s.inner.DeleteIn(collection, id)
}
func (s *tracedStore) CollectionCounts() map[string]int { return s.inner.CollectionCounts() }
func (s *tracedStore) Embedder() vecdb.Embedder         { return s.query }
func (s *tracedStore) Shards() int                      { return s.inner.Shards() }
func (s *tracedStore) ShardSizes() []int                { return s.inner.ShardSizes() }
func (s *tracedStore) Save() error                      { return s.inner.Save() }
func (s *tracedStore) Close() error                     { return s.inner.Close() }
func (s *tracedStore) PersistStats() serve.PersistStats { return s.inner.PersistStats() }

// The optional surfaces serve.Server and the ingest pipeline
// type-assert on: telemetry, index stats, availability and the
// context-carrying reads and writes.
func (s *tracedStore) SetTelemetry(reg *telemetry.Registry) {
	if ts, ok := s.inner.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		ts.SetTelemetry(reg)
	}
}

func (s *tracedStore) IndexStats() serve.IndexStats {
	if is, ok := s.inner.(interface{ IndexStats() serve.IndexStats }); ok {
		return is.IndexStats()
	}
	return serve.IndexStats{}
}

func (s *tracedStore) Available() error {
	if av, ok := s.inner.(interface{ Available() error }); ok {
		return av.Available()
	}
	return nil
}

func (s *tracedStore) SearchContext(ctx context.Context, q string, k int) ([]vecdb.Hit, error) {
	return s.searchText(ctx, q, k, vecdb.Filter{})
}

func (s *tracedStore) SearchFilteredContext(ctx context.Context, q string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	return s.searchText(ctx, q, k, f)
}

func (s *tracedStore) AddBulkContext(ctx context.Context, texts []string) ([]int64, error) {
	st := s.rec.begin()
	defer s.rec.end("serve.store_write", reqOf(ctx), st)
	if ca, ok := s.inner.(interface {
		AddBulkContext(context.Context, []string) ([]int64, error)
	}); ok {
		return ca.AddBulkContext(ctx, texts)
	}
	return s.inner.AddBulk(texts)
}

func (s *tracedStore) AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error) {
	st := s.rec.begin()
	defer s.rec.end("serve.store_write", reqOf(ctx), st)
	if ca, ok := s.inner.(interface {
		AddBulkDocsContext(context.Context, []vecdb.Document) ([]int64, error)
	}); ok {
		return ca.AddBulkDocsContext(ctx, docs)
	}
	return s.inner.AddBulkDocs(docs)
}

func (s *tracedStore) GetContext(ctx context.Context, id int64) (vecdb.Document, error) {
	if cg, ok := s.inner.(interface {
		GetContext(context.Context, int64) (vecdb.Document, error)
	}); ok {
		return cg.GetContext(ctx, id)
	}
	return s.inner.Get(id)
}

func (s *tracedStore) DeleteContext(ctx context.Context, id int64) error {
	if cd, ok := s.inner.(interface {
		DeleteContext(context.Context, int64) error
	}); ok {
		return cd.DeleteContext(ctx, id)
	}
	return s.inner.Delete(id)
}

// tracedBackend wraps a cluster.Backend: the router-side RPC span.
// (The router's per-backend RPC histograms hang off an unexported
// interface and cannot be forwarded; the wrapper's spans replace them.)
type tracedBackend struct {
	inner cluster.Backend
	rec   *recorder
}

func (b tracedBackend) Name() string { return b.inner.Name() }

func (b tracedBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	s := b.rec.begin()
	hits, err := b.inner.SearchVector(ctx, vec, k, f)
	b.rec.end("cluster.rpc_search", reqOf(ctx), s)
	return hits, err
}

func (b tracedBackend) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	s := b.rec.begin()
	err := b.inner.Apply(ctx, ms)
	b.rec.end("cluster.rpc_apply", reqOf(ctx), s)
	return err
}

func (b tracedBackend) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	return b.inner.Get(ctx, id)
}
func (b tracedBackend) Stat(ctx context.Context) (cluster.ShardStat, error) { return b.inner.Stat(ctx) }
func (b tracedBackend) Probe(ctx context.Context) error                     { return b.inner.Probe(ctx) }
func (b tracedBackend) MutationsSince(ctx context.Context, since uint64, max int) ([]vecdb.SeqMutation, error) {
	return b.inner.MutationsSince(ctx, since, max)
}
func (b tracedBackend) ApplyResync(ctx context.Context, ms []vecdb.SeqMutation) error {
	return b.inner.ApplyResync(ctx, ms)
}
func (b tracedBackend) SnapshotDocs(ctx context.Context) (uint64, []vecdb.Document, error) {
	return b.inner.SnapshotDocs(ctx)
}
func (b tracedBackend) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	return b.inner.ApplySnapshot(ctx, seq, docs)
}

// InstallRing forwards cluster.RingReceiver.
func (b tracedBackend) InstallRing(ctx context.Context, up cluster.RingUpdate) error {
	if rr, ok := b.inner.(cluster.RingReceiver); ok {
		return rr.InstallRing(ctx, up)
	}
	return nil
}

// tracedNode wraps the shard node's cluster.NodeStore.
type tracedNode struct {
	inner cluster.NodeStore
	rec   *recorder
}

func (n tracedNode) SearchVector(vec []float32, k int) ([]vecdb.Hit, error) {
	s := n.rec.begin()
	hits, err := n.inner.SearchVector(vec, k)
	n.rec.end("node.search", 0, s)
	return hits, err
}

func (n tracedNode) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	s := n.rec.begin()
	hits, err := n.inner.SearchVectorFiltered(vec, k, f)
	n.rec.end("node.search", 0, s)
	return hits, err
}

func (n tracedNode) ApplyAll(ms []vecdb.Mutation) error {
	s := n.rec.begin()
	err := n.inner.ApplyAll(ms)
	n.rec.end("node.apply", 0, s)
	return err
}

func (n tracedNode) Get(id int64) (vecdb.Document, error) { return n.inner.Get(id) }
func (n tracedNode) Len() int                             { return n.inner.Len() }
func (n tracedNode) NextID() int64                        { return n.inner.NextID() }
func (n tracedNode) Seq() uint64                          { return n.inner.Seq() }
func (n tracedNode) Checksum() uint64                     { return n.inner.Checksum() }
func (n tracedNode) CollectionCounts() map[string]int     { return n.inner.CollectionCounts() }
func (n tracedNode) MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error) {
	return n.inner.MutationsSince(since, max)
}
func (n tracedNode) ApplyResync(ms []vecdb.SeqMutation) error { return n.inner.ApplyResync(ms) }
func (n tracedNode) SnapshotDocs() (uint64, []vecdb.Document, error) {
	return n.inner.SnapshotDocs()
}
func (n tracedNode) ApplySnapshot(seq uint64, docs []vecdb.Document) error {
	return n.inner.ApplySnapshot(seq, docs)
}

var (
	_ slm.Model         = tracedModel{}
	_ rag.Generator     = tracedGenerator{}
	_ vecdb.Embedder    = tracedEmbedder{}
	_ vecdb.Index       = tracedIndex{}
	_ serve.Store       = (*tracedStore)(nil)
	_ cluster.Backend   = tracedBackend{}
	_ cluster.NodeStore = tracedNode{}
)

// ---- attribution and the ledger ----

// attribute ties every unattributed span to a request by enclosure
// (see attachParents), shallowest layers first so a node-side span
// inherits from an already attributed RPC span. It returns the share
// of spans whose enclosing candidates belonged to more than one
// request.
func attribute(spans []span) float64 {
	byLayer := map[string][]int{}
	for i, s := range spans {
		byLayer[s.layer] = append(byLayer[s.layer], i)
	}
	layers := make([]string, 0, len(attachParents))
	for l := range attachParents {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layerDepth[layers[i]] < layerDepth[layers[j]] })
	ambiguous, total := 0, 0
	for _, l := range layers {
		var parents []int
		for _, p := range attachParents[l] {
			for _, i := range byLayer[p] {
				if spans[i].req != 0 {
					parents = append(parents, i)
				}
			}
		}
		for _, i := range byLayer[l] {
			if spans[i].req != 0 {
				continue
			}
			total++
			var best *span
			reqs := map[int64]bool{}
			for _, p := range parents {
				ps := &spans[p]
				if ps.start <= spans[i].start && spans[i].start <= ps.end {
					reqs[ps.req] = true
					if best == nil || ps.start > best.start {
						best = ps
					}
				}
			}
			if best != nil {
				spans[i].req = best.req
			}
			if len(reqs) > 1 {
				ambiguous++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ambiguous) / float64(total)
}

// partition splits the root span's wall time among layers: each
// instant goes to the deepest span of the request active then, so the
// per-layer self times sum exactly to the root's duration.
func partition(root span, spans []span) map[string]int64 {
	cuts := []int64{root.start, root.end}
	for _, s := range spans {
		for _, t := range []int64{s.start, s.end} {
			if t > root.start && t < root.end {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		owner, depth := root.layer, -1
		for _, s := range spans {
			if s.start <= a && s.end >= b && layerDepth[s.layer] > depth {
				owner, depth = s.layer, layerDepth[s.layer]
			}
		}
		out[owner] += b - a
	}
	return out
}

// reqSpans groups attributed spans by request.
func reqSpans(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		if s.req != 0 {
			out[s.req] = append(out[s.req], s)
		}
	}
	return out
}

func ivsOf(spans []span, layers ...string) []interval {
	var out []interval
	for _, s := range spans {
		for _, l := range layers {
			if s.layer == l {
				out = append(out, s.iv())
			}
		}
	}
	return out
}

func durs(spans []span, layer string, unit float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.layer == layer {
			out = append(out, float64(s.end-s.start)/unit)
		}
	}
	return out
}

const (
	msNS = 1e6
	usNS = 1e3
)
