package slm

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/splitter"
	"repro/internal/tokenizer"
)

func testConfig() Config {
	return Config{Dim: 16, Heads: 2, Layers: 2, FFNDim: 32, MaxSeq: 32}
}

func newTestTransformer(t *testing.T) *Transformer {
	t.Helper()
	tr, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dim: 0, Heads: 1, Layers: 1, FFNDim: 1, MaxSeq: 1, VocabSize: 10},
		{Dim: 10, Heads: 3, Layers: 1, FFNDim: 1, MaxSeq: 1, VocabSize: 10}, // 10 % 3 != 0
		{Dim: 4, Heads: 2, Layers: 0, FFNDim: 8, MaxSeq: 4, VocabSize: 10},
		{Dim: 4, Heads: 2, Layers: 1, FFNDim: 8, MaxSeq: 4, VocabSize: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	good := Config{Dim: 4, Heads: 2, Layers: 1, FFNDim: 8, MaxSeq: 4, VocabSize: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNumParamsPositive(t *testing.T) {
	c := testConfig()
	c.VocabSize = 260
	if n := c.NumParams(); n <= 0 {
		t.Errorf("NumParams = %d", n)
	}
}

func TestNextTokenProbsIsDistribution(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("the store opens at nine")
	probs, err := tr.NextTokenProbs(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != tr.Config().VocabSize {
		t.Fatalf("probs len %d != vocab %d", len(probs), tr.Config().VocabSize)
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestNextTokenProbsEmptyPrompt(t *testing.T) {
	tr := newTestTransformer(t)
	if _, err := tr.NextTokenProbs(nil); err == nil {
		t.Error("empty prompt accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := newTestTransformer(t)
	b, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	ids := a.Tokenizer().Encode("determinism check")
	pa, _ := a.NextTokenProbs(ids)
	pb, _ := b.NextTokenProbs(ids)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed diverged at logit %d", i)
		}
	}
	c, err := NewTransformer(testConfig(), tokenizer.New(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := c.NextTokenProbs(ids)
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical distributions")
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	// The KV cache must make step-by-step decoding equal to feeding
	// the whole prefix at once.
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("abc def ghi")
	if len(ids) < 3 {
		t.Fatal("prompt too short for the test")
	}
	s1 := tr.NewSession()
	logitsAll, err := s1.Feed(ids)
	if err != nil {
		t.Fatal(err)
	}
	s2 := tr.NewSession()
	var logitsStep []float32
	for _, id := range ids {
		logitsStep, err = s2.Step(id)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range logitsAll {
		if math.Abs(float64(logitsAll[i]-logitsStep[i])) > 1e-5 {
			t.Fatalf("incremental diverged at %d: %v vs %v", i, logitsAll[i], logitsStep[i])
		}
	}
}

func TestSequenceTooLong(t *testing.T) {
	tr := newTestTransformer(t)
	s := tr.NewSession()
	for i := 0; i < tr.Config().MaxSeq; i++ {
		if _, err := s.Step(tokenizer.BosID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Step(tokenizer.BosID); !errors.Is(err, ErrSequenceTooLong) {
		t.Errorf("overlong step err = %v, want ErrSequenceTooLong", err)
	}
}

func TestStepRejectsBadToken(t *testing.T) {
	tr := newTestTransformer(t)
	s := tr.NewSession()
	if _, err := s.Step(-1); err == nil {
		t.Error("negative token accepted")
	}
	if _, err := s.Step(tr.Config().VocabSize); err == nil {
		t.Error("out-of-vocab token accepted")
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("hello")
	a, err := tr.Generate(ids, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Generate(ids, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("greedy generation nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation nondeterministic")
		}
	}
	if len(a) == 0 {
		t.Skip("greedy hit EOS immediately; acceptable for random weights")
	}
}

func TestGenerateSampledWithinVocab(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("sample")
	out, err := tr.Generate(ids, 10, 1.0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range out {
		if id < 0 || id >= tr.Config().VocabSize {
			t.Fatalf("generated id %d out of vocab", id)
		}
	}
	// Generation respects MaxSeq even for long budgets.
	if _, err := tr.Generate(ids, 10_000, 1.0, rng.New(7)); err != nil {
		t.Fatalf("long generation should stop at MaxSeq, got %v", err)
	}
}

func TestHiddenSignatureProperties(t *testing.T) {
	tr := newTestTransformer(t)
	enc := func(s string) []int { return tr.Tokenizer().Encode(s) }
	a, err := tr.HiddenSignature(enc("the quick brown fox"))
	if err != nil {
		t.Fatal(err)
	}
	if a < -1 || a > 1 {
		t.Errorf("signature %v out of [-1,1]", a)
	}
	b, _ := tr.HiddenSignature(enc("the quick brown fox"))
	if a != b {
		t.Error("signature not deterministic")
	}
	c, _ := tr.HiddenSignature(enc("a completely different sentence here"))
	if a == c {
		t.Error("distinct inputs produced identical signatures")
	}
	// Longer than MaxSeq: tail is kept, no error.
	long := enc("word word word word word word word word word word word word word word word word word word word word")
	if _, err := tr.HiddenSignature(long); err != nil {
		t.Errorf("long prompt signature failed: %v", err)
	}
	if _, err := tr.HiddenSignature(nil); err == nil {
		t.Error("empty prompt accepted")
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float32{1, 2, 3}
	softmaxInPlace(x)
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Error("softmax broke ordering")
	}
	// Large values must not overflow.
	y := []float32{1000, 1000}
	softmaxInPlace(y)
	if math.IsNaN(float64(y[0])) || math.Abs(float64(y[0])-0.5) > 1e-6 {
		t.Errorf("softmax unstable for large logits: %v", y)
	}
}

func TestLayerNorm(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	gain := []float32{1, 1, 1, 1}
	bias := []float32{0, 0, 0, 0}
	layerNorm(x, gain, bias, 1e-5)
	var mean, varsum float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range x {
		varsum += (float64(v) - mean) * (float64(v) - mean)
	}
	if math.Abs(mean) > 1e-5 {
		t.Errorf("normalized mean = %v", mean)
	}
	if math.Abs(varsum/4-1) > 1e-3 {
		t.Errorf("normalized variance = %v", varsum/4)
	}
}

func TestMatVecShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	matVec(make([]float32, 2), make([]float32, 4), make([]float32, 3), 2, 2)
}

// refSession is the token-by-token forward pass the engine ran before
// Session.prefill: every position runs every layer in full and the
// output head runs after every token. It is kept only as the oracle
// the prefill pass must match bit for bit.
type refSession struct {
	t *Transformer
	// kCache/vCache are [layer][pos*Dim] grown as tokens arrive.
	kCache [][]float32
	vCache [][]float32
	pos    int
	// scratch buffers reused across steps.
	x, xn, q, k, v, attnOut, ffnHid, ffnOut []float32
	logits                                  []float32
}

func newRefSession(t *Transformer) *refSession {
	return &refSession{
		t:       t,
		kCache:  make([][]float32, t.cfg.Layers),
		vCache:  make([][]float32, t.cfg.Layers),
		x:       make([]float32, t.cfg.Dim),
		xn:      make([]float32, t.cfg.Dim),
		q:       make([]float32, t.cfg.Dim),
		k:       make([]float32, t.cfg.Dim),
		v:       make([]float32, t.cfg.Dim),
		attnOut: make([]float32, t.cfg.Dim),
		ffnHid:  make([]float32, t.cfg.FFNDim),
		ffnOut:  make([]float32, t.cfg.Dim),
		logits:  make([]float32, t.cfg.VocabSize),
	}
}

// step feeds one in-range token ID and returns the logits for the next
// token.
func (s *refSession) step(id int) []float32 {
	t := s.t
	cfg := t.cfg
	d := cfg.Dim
	// Embedding = token + position.
	copy(s.x, t.tokEmb[id*d:(id+1)*d])
	addInPlace(s.x, t.posEmb[s.pos*d:(s.pos+1)*d])

	headDim := d / cfg.Heads
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for l := range t.layers {
		lw := &t.layers[l]
		// --- attention sublayer (pre-LN) ---
		copy(s.xn, s.x)
		layerNorm(s.xn, lw.ln1g, lw.ln1b, 1e-5)
		matVec(s.q, lw.wq, s.xn, d, d)
		matVec(s.k, lw.wk, s.xn, d, d)
		matVec(s.v, lw.wv, s.xn, d, d)
		s.kCache[l] = append(s.kCache[l], s.k...)
		s.vCache[l] = append(s.vCache[l], s.v...)
		steps := s.pos + 1
		// Causal attention: the new query attends to all cached keys.
		for h := 0; h < cfg.Heads; h++ {
			qh := s.q[h*headDim : (h+1)*headDim]
			// softmax over `steps` scores.
			scores := make([]float32, steps)
			for p := 0; p < steps; p++ {
				kh := s.kCache[l][p*d+h*headDim : p*d+(h+1)*headDim]
				scores[p] = dot(qh, kh) * scale
			}
			softmaxInPlace(scores)
			out := s.attnOut[h*headDim : (h+1)*headDim]
			for i := range out {
				out[i] = 0
			}
			for p := 0; p < steps; p++ {
				vh := s.vCache[l][p*d+h*headDim : p*d+(h+1)*headDim]
				w := scores[p]
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
	s.pos++
	// Final norm + tied output head.
	copy(s.xn, s.x)
	layerNorm(s.xn, t.lnFg, t.lnFb, 1e-5)
	matVec(s.logits, t.tokEmb, s.xn, cfg.VocabSize, d)
	return s.logits
}

// signature folds the reference residual stream exactly as
// HiddenSignature folds the engine's.
func (s *refSession) signature() float64 {
	var acc float64
	for i, v := range s.x {
		if i%2 == 0 {
			acc += float64(v)
		} else {
			acc -= float64(v)
		}
	}
	return math.Tanh(acc / math.Sqrt(float64(s.t.cfg.Dim)))
}

// sameBits reports whether two float32 vectors are bitwise equal.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// datasetPrompts returns the token IDs of every verification prompt the
// detector builds from the default dataset's split sentences.
func datasetPrompts(tb testing.TB, tok *tokenizer.Tokenizer) [][]int {
	tb.Helper()
	set, err := dataset.Default()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]int
	for _, it := range set.Items {
		for _, r := range it.Responses {
			for _, sentence := range splitter.Split(r.Text) {
				req := VerifyRequest{Question: it.Question, Context: it.Context, Claim: sentence}
				out = append(out, tok.Encode(VerificationPrompt(req)))
			}
		}
	}
	return out
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestPrefillBitIdenticalToStepwise holds the prefill pass to the
// token-by-token reference on every dataset verification prompt under
// all three profiles' networks: HiddenSignature must match in every
// bit, on the MaxSeq tail window of the full prompt and on a shorter
// prefix of it, and so must the logits of Feed (split into two calls).
// NextTokenProbs, a thin wrapper over Feed, is checked on every eighth
// prompt. The single-goroutine sweep gains nothing from the race
// detector, which slows it twelvefold, so -race and -short runs check
// every sixteenth prompt.
func TestPrefillBitIdenticalToStepwise(t *testing.T) {
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 16
	}
	for _, p := range []Profile{Qwen2Profile, MiniCPMProfile, ChatGPTProfile} {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			net := MustCalibrated(p).net
			prompts := datasetPrompts(t, net.Tokenizer())
			maxSeq := net.Config().MaxSeq
			longer := 0
			for n := 0; n < len(prompts); n += stride {
				ids := prompts[n]
				window := ids
				if len(window) > maxSeq {
					window = window[len(window)-maxSeq:]
					longer++
				}
				// A short window of 1..len(window)-1 tokens, varied per
				// prompt.
				cut := len(window)
				if cut > 1 {
					cut = 1 + n%(cut-1)
				}
				ref := newRefSession(net)
				var refCut []float32
				var refCutSig float64
				for i, id := range window {
					ref.step(id)
					if i+1 == cut {
						refCut = append([]float32(nil), ref.logits...)
						refCutSig = ref.signature()
					}
				}

				sig, err := net.HiddenSignature(ids)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(sig) != math.Float64bits(ref.signature()) {
					t.Fatalf("prompt %d: signature %v, reference %v", n, sig, ref.signature())
				}
				short, err := net.HiddenSignature(window[:cut])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(short) != math.Float64bits(refCutSig) {
					t.Fatalf("prompt %d: %d-token signature %v, reference %v", n, cut, short, refCutSig)
				}

				s := net.NewSession()
				logits, err := s.Feed(window[:cut])
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(logits, refCut) {
					t.Fatalf("prompt %d: logits after %d tokens differ from the reference", n, cut)
				}
				if cut < len(window) {
					if logits, err = s.Feed(window[cut:]); err != nil {
						t.Fatal(err)
					}
				}
				if !sameBits(logits, ref.logits) {
					t.Fatalf("prompt %d: final logits differ from the reference", n)
				}

				if n%8 != 0 {
					continue
				}
				probs, err := net.NextTokenProbs(window)
				if err != nil {
					t.Fatal(err)
				}
				softmaxInPlace(ref.logits)
				if !sameBits(probs, ref.logits) {
					t.Fatalf("prompt %d: NextTokenProbs differs from the reference", n)
				}
			}
			if longer == 0 {
				t.Fatalf("no prompt exceeded MaxSeq %d; the tail window went untested", maxSeq)
			}
		})
	}
}

// FuzzPrefillMatchesStepwise feeds random token sequences of 1..MaxSeq
// IDs as one Feed of a random-length prefix followed by a Step per
// remaining token, and requires every returned logit vector and the
// final residual stream to match the reference bit for bit.
func FuzzPrefillMatchesStepwise(f *testing.F) {
	f.Add([]byte{0, 1}, uint8(0))
	f.Add([]byte("the store opens at nine"), uint8(5))
	f.Add(make([]byte, 64), uint8(32))
	f.Add([]byte{0xff, 0xff, 0x01, 0x03, 0x00, 0x07}, uint8(200))
	tr, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		f.Fatal(err)
	}
	cfg := tr.Config()
	f.Fuzz(func(t *testing.T, raw []byte, split uint8) {
		// Two bytes per token ID, so every ID in the vocabulary is
		// reachable.
		var ids []int
		for i := 0; i+1 < len(raw) && len(ids) < cfg.MaxSeq; i += 2 {
			ids = append(ids, int(binary.BigEndian.Uint16(raw[i:]))%cfg.VocabSize)
		}
		if len(ids) == 0 {
			return
		}
		cut := int(split) % (len(ids) + 1)
		ref := newRefSession(tr)
		s := tr.NewSession()
		if cut > 0 {
			for _, id := range ids[:cut] {
				ref.step(id)
			}
			logits, err := s.Feed(ids[:cut])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(logits, ref.logits) {
				t.Fatalf("Feed(%d ids) logits differ from the reference", cut)
			}
		}
		for i := cut; i < len(ids); i++ {
			want := ref.step(ids[i])
			got, err := s.Step(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("Step at position %d after Feed(%d ids) differs from the reference", i, cut)
			}
		}
		if !sameBits(s.x, ref.x) || s.Len() != len(ids) {
			t.Fatal("final residual stream differs from the reference")
		}
		sig, err := tr.HiddenSignature(ids)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sig) != math.Float64bits(ref.signature()) {
			t.Fatalf("signature %v, reference %v", sig, ref.signature())
		}
	})
}
