// Package rag implements the retrieval-augmented-generation flow of the
// paper's §III and Fig. 2 (a): documents are chunked into passages,
// indexed in the vector database, retrieved per question, assembled
// into a prompt, and handed to an answer generator. The pipeline's
// output — (question, retrieved context, response) triples — is what
// the core detection framework verifies.
package rag

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/splitter"
	"repro/internal/vecdb"
)

// Chunker splits a document into indexable passages.
type Chunker struct {
	// MaxSentences caps the sentences per chunk.
	MaxSentences int
	// Overlap carries this many trailing sentences into the next chunk
	// so facts straddling a boundary stay retrievable.
	Overlap int
}

// DefaultChunker returns the chunker used by the examples: three
// sentences per chunk with one sentence of overlap.
func DefaultChunker() Chunker { return Chunker{MaxSentences: 3, Overlap: 1} }

// Chunk splits text into passages. Empty input yields nil.
func (c Chunker) Chunk(text string) ([]string, error) {
	if c.MaxSentences <= 0 {
		return nil, fmt.Errorf("rag: MaxSentences must be positive, got %d", c.MaxSentences)
	}
	if c.Overlap < 0 || c.Overlap >= c.MaxSentences {
		return nil, fmt.Errorf("rag: need 0 ≤ Overlap(%d) < MaxSentences(%d)", c.Overlap, c.MaxSentences)
	}
	sentences := splitter.Split(text)
	if len(sentences) == 0 {
		return nil, nil
	}
	var chunks []string
	step := c.MaxSentences - c.Overlap
	for start := 0; start < len(sentences); start += step {
		end := start + c.MaxSentences
		if end > len(sentences) {
			end = len(sentences)
		}
		chunks = append(chunks, strings.Join(sentences[start:end], " "))
		if end == len(sentences) {
			break
		}
	}
	return chunks, nil
}

// Store is the document backend the pipeline retrieves from. It is
// satisfied by *vecdb.DB and by sharded or cached routers layered on
// top of it (internal/serve).
type Store interface {
	// Add embeds and stores one passage, returning its ID.
	Add(text string, meta map[string]string) (int64, error)
	// Search returns the top-k most similar passages, best first.
	Search(query string, k int) ([]vecdb.Hit, error)
	// Len reports the number of stored passages.
	Len() int
}

var _ Store = (*vecdb.DB)(nil)

// ContextSearcher is the optional context-aware search surface. A
// Store implementing it (serve.ShardedDB, serve.RemoteStore) receives
// the caller's context on retrieval, keeping request IDs and
// deadlines flowing from an HTTP handler down to cluster RPCs.
type ContextSearcher interface {
	SearchContext(ctx context.Context, query string, k int) ([]vecdb.Hit, error)
}

// CollectionSearcher is the optional scoped search surface: stores
// that can push a collection/metadata predicate into retrieval
// (serve.ShardedDB, serve.RemoteStore) implement it, so an Ask scoped
// to one tenant draws context exclusively from that tenant's
// documents — cross-tenant leakage is structurally impossible rather
// than probabilistically unlikely.
type CollectionSearcher interface {
	SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error)
}

// Retriever answers questions with the top-k most relevant passages
// from a document store.
type Retriever struct {
	db   Store
	topK int
}

// NewRetriever wraps a populated store. topK must be positive.
func NewRetriever(db Store, topK int) (*Retriever, error) {
	if db == nil {
		return nil, errors.New("rag: nil database")
	}
	if topK <= 0 {
		return nil, fmt.Errorf("rag: topK must be positive, got %d", topK)
	}
	return &Retriever{db: db, topK: topK}, nil
}

// Retrieve returns the top passages for the question, best first.
func (r *Retriever) Retrieve(question string) ([]vecdb.Hit, error) {
	hits, err := r.db.Search(question, r.topK)
	if err != nil {
		return nil, fmt.Errorf("rag: retrieve: %w", err)
	}
	return hits, nil
}

// RetrieveContext is Retrieve under the caller's context when the
// store supports it, falling back to the context-free path.
func (r *Retriever) RetrieveContext(ctx context.Context, question string) ([]vecdb.Hit, error) {
	cs, ok := r.db.(ContextSearcher)
	if !ok {
		return r.Retrieve(question)
	}
	hits, err := cs.SearchContext(ctx, question, r.topK)
	if err != nil {
		return nil, fmt.Errorf("rag: retrieve: %w", err)
	}
	return hits, nil
}

// RetrieveFiltered is RetrieveContext with a collection/metadata
// predicate pushed into the store. A zero filter falls back to the
// unscoped path; a non-zero filter on a store without the scoped
// surface is an error, never a silent widening of scope.
func (r *Retriever) RetrieveFiltered(ctx context.Context, question string, f vecdb.Filter) ([]vecdb.Hit, error) {
	if f.IsZero() {
		return r.RetrieveContext(ctx, question)
	}
	cs, ok := r.db.(CollectionSearcher)
	if !ok {
		return nil, errors.New("rag: store cannot scope retrieval to a collection")
	}
	hits, err := cs.SearchFilteredContext(ctx, question, r.topK, f)
	if err != nil {
		return nil, fmt.Errorf("rag: retrieve: %w", err)
	}
	return hits, nil
}

// Context concatenates retrieved passages into the context string the
// generation and verification prompts consume.
func Context(hits []vecdb.Hit) string {
	parts := make([]string, len(hits))
	for i, h := range hits {
		parts[i] = h.Text
	}
	return strings.Join(parts, " ")
}

// AnswerPrompt renders the generation prompt of §III: role, context,
// question.
func AnswerPrompt(question, context string) string {
	var b strings.Builder
	b.WriteString("You are a helpful HR assistant. Answer the question using only the provided context.\n")
	fmt.Fprintf(&b, "Context: %s\n", context)
	fmt.Fprintf(&b, "Question: %s\n", question)
	b.WriteString("Answer:")
	return b.String()
}

// Generator produces an answer from a question and retrieved context.
// It stands in for the LLM of Fig. 2 (a) (ChatGPT 3.5 / Llama-2-70b in
// the paper); see docs/architecture.md, "Stand-ins for the paper's
// models and data", for the substitution.
type Generator interface {
	// Generate returns the response text for the prompt inputs.
	Generate(question, context string) (string, error)
}

// ExtractiveGenerator is a deterministic generator that answers by
// selecting the context sentences most relevant to the question — the
// behaviour of a well-grounded LLM. Wrapping it with a FaultInjector
// produces the hallucinated variants the detector is evaluated on.
type ExtractiveGenerator struct {
	// MaxSentences caps the answer length.
	MaxSentences int
}

// Generate implements Generator by scoring each context sentence's
// lexical overlap with the question and returning the best ones in
// their original order.
func (g ExtractiveGenerator) Generate(question, context string) (string, error) {
	max := g.MaxSentences
	if max <= 0 {
		max = 2
	}
	sentences := splitter.Split(context)
	if len(sentences) == 0 {
		return "", errors.New("rag: empty context")
	}
	type scored struct {
		idx   int
		score float64
	}
	qWords := contentSet(question)
	ranked := make([]scored, 0, len(sentences))
	for i, s := range sentences {
		ranked = append(ranked, scored{idx: i, score: overlapWith(qWords, s)})
	}
	// Selection sort of the top `max` by score (stable by index).
	// Near-duplicate sentences — common when overlapping retrieved
	// passages repeat the same handbook fact — are selected once.
	selected := map[int]bool{}
	chosen := map[string]bool{}
	for n := 0; n < max && n < len(ranked); {
		best := -1
		for i, r := range ranked {
			if selected[r.idx] {
				continue
			}
			if best == -1 || r.score > ranked[best].score {
				best = i
			}
		}
		if best == -1 || ranked[best].score == 0 && n > 0 {
			break
		}
		selected[ranked[best].idx] = true
		key := strings.Join(contentWords(sentences[ranked[best].idx]), " ")
		if chosen[key] {
			selected[ranked[best].idx] = false
			ranked = append(ranked[:best], ranked[best+1:]...)
			continue
		}
		chosen[key] = true
		n++
	}
	var out []string
	for i, s := range sentences {
		if selected[i] {
			out = append(out, s)
		}
	}
	return strings.Join(out, " "), nil
}

// contentSet builds the stemmed content-word set of s.
func contentSet(s string) map[string]struct{} {
	set := map[string]struct{}{}
	for _, w := range contentWords(s) {
		set[w] = struct{}{}
	}
	return set
}

func overlapWith(q map[string]struct{}, sentence string) float64 {
	words := contentWords(sentence)
	if len(words) == 0 {
		return 0
	}
	n := 0
	for _, w := range words {
		if _, ok := q[w]; ok {
			n++
		}
	}
	return float64(n) / float64(len(words))
}
