package slm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// Config describes a decoder-only transformer. Sizes are deliberately
// small — the engine exists to make the inference code path real
// (tokenize → embed → attend → project → softmax → first-token
// probability), not to host billion-parameter weights.
type Config struct {
	// VocabSize is the tokenizer vocabulary size; logits have this
	// width.
	VocabSize int
	// Dim is the residual-stream width.
	Dim int
	// Heads is the number of attention heads; Dim must be divisible by
	// Heads.
	Heads int
	// Layers is the number of transformer blocks.
	Layers int
	// FFNDim is the hidden width of the feed-forward block, typically
	// 4×Dim.
	FFNDim int
	// MaxSeq is the maximum sequence length (positional table size and
	// KV-cache capacity).
	MaxSeq int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.VocabSize <= 0:
		return fmt.Errorf("slm: VocabSize must be positive, got %d", c.VocabSize)
	case c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.FFNDim <= 0 || c.MaxSeq <= 0:
		return errors.New("slm: all dimensions must be positive")
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("slm: Dim %d not divisible by Heads %d", c.Dim, c.Heads)
	}
	return nil
}

// NumParams returns the total parameter count of a model with this
// configuration.
func (c Config) NumParams() int {
	perLayer := 4*c.Dim*c.Dim + // q,k,v,o projections
		2*c.Dim*c.FFNDim + c.FFNDim + c.Dim + // ffn weights + biases
		4*c.Dim // two layernorms (gain+bias)
	return c.VocabSize*c.Dim + // token embedding (tied output head)
		c.MaxSeq*c.Dim + // positional embedding
		c.Layers*perLayer +
		2*c.Dim // final layernorm
}

// layerWeights holds one transformer block's parameters.
type layerWeights struct {
	wq, wk, wv, wo []float32 // Dim×Dim each
	ln1g, ln1b     []float32 // Dim
	ln2g, ln2b     []float32 // Dim
	w1             []float32 // FFNDim×Dim
	b1             []float32 // FFNDim
	w2             []float32 // Dim×FFNDim
	b2             []float32 // Dim
}

// Transformer is a decoder-only transformer with learned positional
// embeddings, pre-layernorm blocks and a weight-tied output head.
// Weights are immutable after construction, so a Transformer may be
// shared across goroutines; per-call state lives in Session.
type Transformer struct {
	cfg Config
	tok *tokenizer.Tokenizer

	tokEmb []float32 // VocabSize×Dim
	posEmb []float32 // MaxSeq×Dim
	layers []layerWeights
	lnFg   []float32 // final layernorm gain
	lnFb   []float32 // final layernorm bias
}

// NewTransformer builds a transformer with weights drawn from a
// deterministic source seeded by `seed`, scaled with the standard
// 1/sqrt(fanIn) initialization. The tokenizer fixes VocabSize.
func NewTransformer(cfg Config, tok *tokenizer.Tokenizer, seed uint64) (*Transformer, error) {
	cfg.VocabSize = tok.VocabSize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(seed)
	randn := func(n int, scale float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(src.NormFloat64() * scale)
		}
		return out
	}
	ones := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	t := &Transformer{
		cfg:    cfg,
		tok:    tok,
		tokEmb: randn(cfg.VocabSize*cfg.Dim, 0.02),
		posEmb: randn(cfg.MaxSeq*cfg.Dim, 0.02),
		lnFg:   ones(cfg.Dim),
		lnFb:   make([]float32, cfg.Dim),
	}
	attnScale := 1 / math.Sqrt(float64(cfg.Dim))
	ffnScale := 1 / math.Sqrt(float64(cfg.FFNDim))
	for l := 0; l < cfg.Layers; l++ {
		t.layers = append(t.layers, layerWeights{
			wq:   randn(cfg.Dim*cfg.Dim, attnScale),
			wk:   randn(cfg.Dim*cfg.Dim, attnScale),
			wv:   randn(cfg.Dim*cfg.Dim, attnScale),
			wo:   randn(cfg.Dim*cfg.Dim, attnScale),
			ln1g: ones(cfg.Dim), ln1b: make([]float32, cfg.Dim),
			ln2g: ones(cfg.Dim), ln2b: make([]float32, cfg.Dim),
			w1: randn(cfg.FFNDim*cfg.Dim, attnScale),
			b1: make([]float32, cfg.FFNDim),
			w2: randn(cfg.Dim*cfg.FFNDim, ffnScale),
			b2: make([]float32, cfg.Dim),
		})
	}
	return t, nil
}

// Config returns the model's configuration.
func (t *Transformer) Config() Config { return t.cfg }

// Tokenizer returns the tokenizer the model was built with.
func (t *Transformer) Tokenizer() *tokenizer.Tokenizer { return t.tok }

// Session holds the per-sequence KV cache for incremental decoding.
// A Session is single-goroutine; create one per concurrent decode.
type Session struct {
	t *Transformer
	// kCache/vCache are [layer][pos*Dim], sized for MaxSeq positions
	// up front; the first pos*Dim entries of each are live.
	kCache [][]float32
	vCache [][]float32
	pos    int
	// x is the residual stream of the most recently fed position.
	x []float32
	// scratch buffers reused across positions.
	xn, q, attnOut, ffnHid, ffnOut []float32
	scores                         []float32 // MaxSeq attention weights
	logits                         []float32
}

// NewSession creates an empty decoding session. Every buffer is carved
// from one slab, so a session costs a few allocations however many
// tokens it later consumes.
func (t *Transformer) NewSession() *Session {
	cfg := t.cfg
	kv := cfg.MaxSeq * cfg.Dim
	slab := make([]float32, 2*cfg.Layers*kv+5*cfg.Dim+cfg.FFNDim+cfg.MaxSeq+cfg.VocabSize)
	take := func(n int) []float32 {
		b := slab[:n:n]
		slab = slab[n:]
		return b
	}
	caches := make([][]float32, 2*cfg.Layers)
	for i := range caches {
		caches[i] = take(kv)
	}
	return &Session{
		t:       t,
		kCache:  caches[:cfg.Layers],
		vCache:  caches[cfg.Layers:],
		x:       take(cfg.Dim),
		xn:      take(cfg.Dim),
		q:       take(cfg.Dim),
		attnOut: take(cfg.Dim),
		ffnOut:  take(cfg.Dim),
		ffnHid:  take(cfg.FFNDim),
		scores:  take(cfg.MaxSeq),
		logits:  take(cfg.VocabSize),
	}
}

// Len returns the number of tokens consumed so far.
func (s *Session) Len() int { return s.pos }

// ErrSequenceTooLong is returned when feeding beyond MaxSeq.
var ErrSequenceTooLong = errors.New("slm: sequence exceeds MaxSeq")

// Step feeds one token ID and returns the logits for the next token.
// The returned slice aliases session scratch space and is valid until
// the next Step or Feed.
func (s *Session) Step(id int) ([]float32, error) { return s.Feed([]int{id}) }

// Feed consumes a sequence of token IDs in one prefill pass and returns
// the logits after the final token. The returned slice aliases session
// scratch space and is valid until the next Step or Feed. The input is
// validated before any token is consumed, so a failed Feed leaves the
// session unchanged.
func (s *Session) Feed(ids []int) ([]float32, error) {
	if err := s.prefill(ids); err != nil {
		return nil, err
	}
	return s.head(), nil
}

// prefill is the engine's only forward pass. It appends every id's keys
// and values to the cache in every layer and leaves the residual stream
// of the final position in s.x. Nothing reads a non-final position's
// last-layer output, so there only its keys and values are computed.
// Each dot product keeps the accumulation order of a token-by-token
// pass, so the result is bit-identical to feeding the ids one at a time.
func (s *Session) prefill(ids []int) error {
	t := s.t
	cfg := t.cfg
	if len(ids) == 0 {
		return errors.New("slm: empty prompt")
	}
	if s.pos+len(ids) > cfg.MaxSeq {
		return fmt.Errorf("%w (max %d)", ErrSequenceTooLong, cfg.MaxSeq)
	}
	for _, id := range ids {
		if id < 0 || id >= cfg.VocabSize {
			return fmt.Errorf("slm: token id %d out of vocab range %d", id, cfg.VocabSize)
		}
	}
	d := cfg.Dim
	headDim := d / cfg.Heads
	scale := float32(1 / math.Sqrt(float64(headDim)))
	last := len(t.layers) - 1
	for off, id := range ids {
		pos := s.pos + off
		final := off == len(ids)-1
		// Embedding = token + position.
		copy(s.x, t.tokEmb[id*d:(id+1)*d])
		addInPlace(s.x, t.posEmb[pos*d:(pos+1)*d])
		for l := range t.layers {
			lw := &t.layers[l]
			kc := s.kCache[l][:(pos+1)*d]
			vc := s.vCache[l][:(pos+1)*d]
			// --- attention sublayer (pre-LN) ---
			copy(s.xn, s.x)
			layerNorm(s.xn, lw.ln1g, lw.ln1b, 1e-5)
			matVec(kc[pos*d:], lw.wk, s.xn, d, d)
			matVec(vc[pos*d:], lw.wv, s.xn, d, d)
			if l == last && !final {
				break
			}
			matVec(s.q, lw.wq, s.xn, d, d)
			// Causal attention: the new query attends to all cached keys.
			for h := 0; h < cfg.Heads; h++ {
				qh := s.q[h*headDim : (h+1)*headDim]
				scores := s.scores[:pos+1]
				for p := range scores {
					kh := kc[p*d+h*headDim : p*d+(h+1)*headDim]
					scores[p] = dot(qh, kh) * scale
				}
				softmaxInPlace(scores)
				out := s.attnOut[h*headDim : (h+1)*headDim]
				for i := range out {
					out[i] = 0
				}
				for p, w := range scores {
					vh := vc[p*d+h*headDim : p*d+(h+1)*headDim]
					for i := range out {
						out[i] += w * vh[i]
					}
				}
			}
			matVec(s.xn, lw.wo, s.attnOut, d, d)
			addInPlace(s.x, s.xn)
			// --- FFN sublayer (pre-LN) ---
			copy(s.xn, s.x)
			layerNorm(s.xn, lw.ln2g, lw.ln2b, 1e-5)
			matVec(s.ffnHid, lw.w1, s.xn, cfg.FFNDim, d)
			addInPlace(s.ffnHid, lw.b1)
			gelu(s.ffnHid)
			matVec(s.ffnOut, lw.w2, s.ffnHid, d, cfg.FFNDim)
			addInPlace(s.ffnOut, lw.b2)
			addInPlace(s.x, s.ffnOut)
		}
	}
	s.pos += len(ids)
	return nil
}

// head applies the final norm and the tied output head to s.x.
func (s *Session) head() []float32 {
	t := s.t
	copy(s.xn, s.x)
	layerNorm(s.xn, t.lnFg, t.lnFb, 1e-5)
	matVec(s.logits, t.tokEmb, s.xn, t.cfg.VocabSize, t.cfg.Dim)
	return s.logits
}

// NextTokenProbs runs the prompt through the model and returns the
// softmax distribution over the first generated token — exactly the
// quantity the paper's Eq. 2 reads the "yes" mass from. The returned
// slice is freshly allocated.
func (t *Transformer) NextTokenProbs(promptIDs []int) ([]float32, error) {
	s := t.NewSession()
	logits, err := s.Feed(promptIDs)
	if err != nil {
		return nil, err
	}
	probs := make([]float32, len(logits))
	copy(probs, logits)
	softmaxInPlace(probs)
	return probs, nil
}

// Generate samples up to maxTokens continuation tokens for the prompt
// using temperature sampling (temperature ≤ 0 means greedy argmax).
// Generation stops early at EOS. The source provides randomness so
// callers control determinism.
func (t *Transformer) Generate(promptIDs []int, maxTokens int, temperature float64, src *rng.Source) ([]int, error) {
	s := t.NewSession()
	logits, err := s.Feed(promptIDs)
	if err != nil {
		return nil, err
	}
	var out []int
	for n := 0; n < maxTokens; n++ {
		id := sampleLogits(logits, temperature, src)
		if id == tokenizer.EosID {
			break
		}
		out = append(out, id)
		logits, err = s.Step(id)
		if err != nil {
			if errors.Is(err, ErrSequenceTooLong) {
				break
			}
			return nil, err
		}
	}
	return out, nil
}

// sampleLogits draws a token from the logit vector. Greedy when
// temperature ≤ 0 or src is nil.
func sampleLogits(logits []float32, temperature float64, src *rng.Source) int {
	if temperature <= 0 || src == nil {
		best, bestV := 0, logits[0]
		for i, v := range logits[1:] {
			if v > bestV {
				best, bestV = i+1, v
			}
		}
		return best
	}
	probs := make([]float32, len(logits))
	for i, v := range logits {
		probs[i] = float32(float64(v) / temperature)
	}
	softmaxInPlace(probs)
	r := src.Float64()
	var cum float64
	for i, p := range probs {
		cum += float64(p)
		if r < cum {
			return i
		}
	}
	return len(probs) - 1
}

// HiddenSignature runs the prompt through the network and folds the
// final residual stream into a single value in [-1, 1]. Because the
// weights are seeded per model, two different models map the same
// prompt to different, deterministic signatures — the engine's way of
// giving each synthetic SLM input-correlated idiosyncrasies (see
// CalibratedVerifier).
func (t *Transformer) HiddenSignature(promptIDs []int) (float64, error) {
	// Cap the prompt at MaxSeq by keeping the tail: the claim (the
	// discriminating part) sits at the end of verification prompts.
	if len(promptIDs) > t.cfg.MaxSeq {
		promptIDs = promptIDs[len(promptIDs)-t.cfg.MaxSeq:]
	}
	// Only the residual stream is read, so the output head never runs.
	s := t.NewSession()
	if err := s.prefill(promptIDs); err != nil {
		return 0, err
	}
	var acc float64
	for i, v := range s.x {
		if i%2 == 0 {
			acc += float64(v)
		} else {
			acc -= float64(v)
		}
	}
	return math.Tanh(acc / math.Sqrt(float64(t.cfg.Dim))), nil
}
