package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ingest"
	"repro/internal/rag"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Store is the document-store surface the Server and the ingest
// pipeline drive. Two implementations exist: ShardedDB (in-process
// shards, optionally durable via per-shard WAL + checkpoints) and
// RemoteStore (a cluster.Router fanning the same operations out to
// shard nodes over HTTP). The Server is agnostic: the full Ask path —
// admission, caches, micro-batched verification — is identical in both
// modes; only where the vectors live changes.
//
// The context-carrying methods are the ones the Server calls: they
// take the request's ID, trace and deadline down into stage timers
// (ShardedDB) or shard RPC hop headers (RemoteStore). The
// context-free methods are the same operations without a request
// context.
type Store interface {
	rag.Store
	// SearchFilteredContext embeds query and returns the merged top-k
	// across shards, with the filter pushed down to every shard before
	// its top-k is taken. The zero filter is the unscoped search.
	SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	// AddBulkDocsContext stores a batch of documents carrying
	// collection and metadata, returning their IDs in input order (IDs
	// on the inputs are ignored; the store allocates), with writes
	// grouped per shard.
	AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error)
	// GetContext returns a stored document, or ErrNotFound.
	GetContext(ctx context.Context, id int64) (vecdb.Document, error)
	// DeleteContext removes a document, or reports ErrNotFound.
	DeleteContext(ctx context.Context, id int64) error
	// AddBulk stores a batch of default-collection texts.
	AddBulk(texts []string) ([]int64, error)
	// AddBulkDocs is AddBulkDocsContext without a request context.
	AddBulkDocs(docs []vecdb.Document) ([]int64, error)
	// SearchVector answers an already-embedded query with the merged
	// top-k across shards.
	SearchVector(vec []float32, k int) ([]vecdb.Hit, error)
	// SearchVectorFiltered pushes a collection/metadata filter down to
	// every shard before the per-shard top-k is taken, so the merged
	// result equals an unfiltered search over the matching subset.
	SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	// Get and Delete are GetContext and DeleteContext without a
	// request context.
	Get(id int64) (vecdb.Document, error)
	Delete(id int64) error
	// DeleteIn is Delete scoped to a collection: a document in a
	// different collection reports ErrNotFound and is left in place.
	DeleteIn(collection string, id int64) error
	// CollectionCounts reports per-collection document counts.
	CollectionCounts() map[string]int
	// Embedder exposes the query-path embedder.
	Embedder() vecdb.Embedder
	// Shards reports the shard count; ShardSizes the per-shard
	// document counts.
	Shards() int
	ShardSizes() []int
	// Save checkpoints durable state now (ErrNoDataDir when the store
	// owns none — a RemoteStore's durability lives on its nodes).
	Save() error
	// Close releases the store (final checkpoint + WAL close for a
	// durable ShardedDB, health-checker shutdown for a RemoteStore).
	Close() error
	// PersistStats reports durability counters (zero-valued when the
	// store owns no durable state).
	PersistStats() PersistStats
	// IndexStats reports the index configuration and memory (zero for
	// a RemoteStore, whose indexes live on its nodes).
	IndexStats() IndexStats
	// Available reports whether the store can serve at all. The
	// admission gate consults it before spending any work on a
	// request, so traffic against a dead cluster sheds in microseconds
	// instead of waiting out transport timeouts. An in-process store is
	// always available.
	Available() error
	// SetTelemetry binds the store's query-path stage histograms to
	// reg; nil detaches.
	SetTelemetry(reg *telemetry.Registry)
}

var (
	_ Store                  = (*ShardedDB)(nil)
	_ Store                  = (*RemoteStore)(nil)
	_ ingest.Store           = (*ShardedDB)(nil)
	_ ingest.Store           = (*RemoteStore)(nil)
	_ rag.ContextSearcher    = (*ShardedDB)(nil)
	_ rag.ContextSearcher    = (*RemoteStore)(nil)
	_ rag.CollectionSearcher = (*ShardedDB)(nil)
	_ rag.CollectionSearcher = (*RemoteStore)(nil)
)

// embedQuery embeds a search query under an "embed" span, timing it
// into h (nil-safe) with a trace exemplar. It goes through the
// collection-namespaced cache entry point when the embedder has one,
// so two tenants with the same query text keep independent cache
// entries (the vector itself is a pure function of the text either
// way). Both stores' text searches start here.
func embedQuery(ctx context.Context, e vecdb.Embedder, h *telemetry.Histogram, collection, query string) ([]float32, error) {
	_, sp := telemetry.StartSpan(ctx, "embed")
	start := time.Now()
	var vec []float32
	var err error
	if ce, ok := e.(interface {
		EmbedIn(collection, text string) ([]float32, error)
	}); ok {
		vec, err = ce.EmbedIn(collection, query)
	} else {
		vec, err = e.Embed(query)
	}
	sp.End(err)
	if err != nil {
		return nil, fmt.Errorf("serve: embed query: %w", err)
	}
	h.ObserveSinceCtx(ctx, start)
	return vec, nil
}

// textDocs wraps texts as default-collection documents without
// metadata — the form every text write takes on its way into the one
// batch-write path.
func textDocs(texts []string) []vecdb.Document {
	docs := make([]vecdb.Document, len(texts))
	for i, t := range texts {
		docs[i] = vecdb.Document{Text: t}
	}
	return docs
}

// firstID unpacks the result of a one-document batch write.
func firstID(ids []int64, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}
