package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/slm"
	"repro/internal/splitter"
)

// Splitter turns a response r_i into sub-responses r_{i,j} (§IV-A).
type Splitter func(string) []string

// SentenceSplitter is the default Splitter: the rule-based sentence
// segmenter standing in for SpaCy.
func SentenceSplitter(text string) []string { return splitter.Split(text) }

// WholeResponse is the identity Splitter used by the P(yes) and
// ChatGPT baselines: the entire response is checked in one piece.
func WholeResponse(text string) []string {
	t := strings.TrimSpace(text)
	if t == "" {
		return nil
	}
	return []string{t}
}

// Config assembles a Detector. The zero value is not usable; use
// NewDetector which validates and fills defaults.
type Config struct {
	// Models are the M verifiers of Eq. 5. At least one is required.
	Models []slm.Model
	// Split maps a response to checkable units; nil means
	// SentenceSplitter.
	Split Splitter
	// Aggregate combines sentence scores (Eq. 6–10); defaults to
	// Harmonic, the paper's proposed choice.
	Aggregate Mean
	// Scale normalizes per-model scores; nil means a fresh Normalizer
	// (Eq. 4).
	Scale Scaler
	// Combine merges the standardized per-model scores of a sentence
	// (Eq. 5); nil means the uniform mean. Gating combiners implement
	// the paper's §VI future-work extension.
	Combine Combiner
	// Shift is added to every sentence score s_{i,j} before
	// aggregation, implementing the paper's positivity adjustment
	// under Eq. 6 while preserving score magnitudes (z-scores live in
	// roughly [-3, 3], so the default shift of 3 moves nearly all mass
	// above zero). 0 means DefaultShift.
	Shift float64
	// Floor replaces sentence scores that remain non-positive after
	// the shift; 0 means DefaultFloor.
	Floor float64
	// Workers bounds concurrent model calls per Score invocation.
	// 0 or 1 means sequential. Parallel scoring requires a frozen (or
	// identity) Scaler; Score reports an error otherwise, because
	// online moment updates would make results order-dependent.
	Workers int
}

// Detector is the assembled checking pipeline of Fig. 2 (b). Safe for
// concurrent use when its Scaler is frozen or stateless.
type Detector struct {
	name    string
	models  []slm.Model
	split   Splitter
	agg     Mean
	scale   Scaler
	combine Combiner
	shift   float64
	floor   float64
	workers int
}

// NewDetector validates cfg and builds a Detector. name labels the
// approach in reports ("Proposed", "P(yes)", ...).
func NewDetector(name string, cfg Config) (*Detector, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("core: at least one model is required")
	}
	seen := map[string]struct{}{}
	for _, m := range cfg.Models {
		if m == nil {
			return nil, errors.New("core: nil model")
		}
		if _, dup := seen[m.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate model name %q (normalization would conflate them)", m.Name())
		}
		seen[m.Name()] = struct{}{}
	}
	d := &Detector{
		name:    name,
		models:  append([]slm.Model(nil), cfg.Models...),
		split:   cfg.Split,
		agg:     cfg.Aggregate,
		scale:   cfg.Scale,
		combine: cfg.Combine,
		shift:   cfg.Shift,
		floor:   cfg.Floor,
		workers: cfg.Workers,
	}
	if d.split == nil {
		d.split = SentenceSplitter
	}
	if d.scale == nil {
		d.scale = NewNormalizer()
	}
	if d.combine == nil {
		d.combine = UniformCombiner{}
	}
	if d.shift == 0 {
		d.shift = DefaultShift
	}
	if d.shift < 0 {
		return nil, fmt.Errorf("core: negative shift %v", d.shift)
	}
	if d.floor == 0 {
		d.floor = DefaultFloor
	}
	if d.floor < 0 {
		return nil, fmt.Errorf("core: negative floor %v", d.floor)
	}
	if d.workers < 0 {
		return nil, fmt.Errorf("core: negative workers %v", d.workers)
	}
	return d, nil
}

// Name returns the approach label.
func (d *Detector) Name() string { return d.name }

// Models returns the detector's verifier list (shared slice copy).
func (d *Detector) Models() []slm.Model { return append([]slm.Model(nil), d.models...) }

// Scaler exposes the detector's normalization state so a harness can
// calibrate and freeze it.
func (d *Detector) Scaler() Scaler { return d.scale }

// Calibrated reports whether scoring is a pure function of its inputs:
// true unless the scaler is a Normalizer still accumulating online
// moments. Result caches and parallel batch scoring require this.
func (d *Detector) Calibrated() bool {
	n, ok := d.scale.(*Normalizer)
	return !ok || n.Frozen()
}

// SentenceScore records the verification of one split sentence.
type SentenceScore struct {
	// Sentence is the split unit r_{i,j}.
	Sentence string
	// Raw holds each model's P(token1 = yes), keyed by model name
	// (Eq. 3).
	Raw map[string]float64
	// Combined is s_{i,j}: the mean of the models' standardized scores
	// (Eq. 4–5).
	Combined float64
}

// Verdict is the framework's output for one response.
type Verdict struct {
	// Score is s_i, the aggregated response score (Eq. 6).
	Score float64
	// Sentences holds the per-sentence breakdown, in response order.
	Sentences []SentenceScore
}

// IsCorrect applies the paper's decision rule: the response is labeled
// correct when its score strictly exceeds the threshold.
func (v Verdict) IsCorrect(threshold float64) bool { return v.Score > threshold }

// ErrEmptyResponse is returned when the splitter yields no checkable
// sentences.
var ErrEmptyResponse = errors.New("core: response has no checkable sentences")

// ErrNonFiniteProbability reports a model that returned NaN or ±Inf as
// P(yes). Such a value is rejected before it reaches the scaler: fed
// to an online Normalizer it would poison the moments for every later
// request, and past the positivity adjustment it would surface as a
// verdict score.
var ErrNonFiniteProbability = errors.New("non-finite probability")

// yesProbability asks m for P(token1 = yes), naming the model on every
// error and rejecting non-finite values with ErrNonFiniteProbability.
// Every model call of the detector goes through it.
func yesProbability(ctx context.Context, m slm.Model, question, contextText, claim string) (float64, error) {
	p, err := m.YesProbability(ctx, slm.VerifyRequest{Question: question, Context: contextText, Claim: claim})
	if err != nil {
		return 0, fmt.Errorf("model %s: %w", m.Name(), err)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0, fmt.Errorf("model %s: %w %v", m.Name(), ErrNonFiniteProbability, p)
	}
	return p, nil
}

// Score runs the full pipeline of Fig. 2 (b) for one
// (question, context, response) triple.
func (d *Detector) Score(ctx context.Context, question, contextText, response string) (Verdict, error) {
	sentences := d.split(response)
	if len(sentences) == 0 {
		return Verdict{}, fmt.Errorf("%w: %q", ErrEmptyResponse, response)
	}
	raw := make([][]float64, len(sentences)) // [sentence][model]
	if d.workers > 1 {
		if n, ok := d.scale.(*Normalizer); ok && !n.Frozen() {
			return Verdict{}, errors.New("core: parallel scoring requires a frozen normalizer (calibrate first)")
		}
		if err := d.scoreParallel(ctx, question, contextText, sentences, raw); err != nil {
			return Verdict{}, err
		}
	} else {
		for si, sentence := range sentences {
			raw[si] = make([]float64, len(d.models))
			for mi, m := range d.models {
				p, err := yesProbability(ctx, m, question, contextText, sentence)
				if err != nil {
					return Verdict{}, fmt.Errorf("core: %w", err)
				}
				raw[si][mi] = p
			}
		}
	}
	return d.assemble(sentences, raw)
}

// scoreParallel fans (sentence, model) calls across a bounded worker
// pool. raw must be pre-sized to len(sentences).
func (d *Detector) scoreParallel(ctx context.Context, question, contextText string, sentences []string, raw [][]float64) error {
	type job struct{ si, mi int }
	jobs := make(chan job)
	for si := range sentences {
		raw[si] = make([]float64, len(d.models))
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := d.workers
	if max := len(sentences) * len(d.models); workers > max {
		workers = max
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p, err := yesProbability(cctx, d.models[j.mi], question, contextText, sentences[j.si])
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("core: %w", err)
						cancel()
					})
					continue
				}
				raw[j.si][j.mi] = p
			}
		}()
	}
	for si := range sentences {
		for mi := range d.models {
			jobs <- job{si, mi}
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// assemble applies Eq. 4–6 to the raw probability matrix. The paper's
// positivity adjustment ("any values less than or equal to zero are
// adjusted") is applied to every sentence score s_{i,j} before
// aggregation, uniformly across all means, so the Fig. 5 comparison
// varies only the aggregation function.
func (d *Detector) assemble(sentences []string, raw [][]float64) (Verdict, error) {
	verdict := Verdict{Sentences: make([]SentenceScore, len(sentences))}
	combined := make([]float64, len(sentences))
	zbuf := make([]float64, len(d.models))
	for si, sentence := range sentences {
		ss := SentenceScore{Sentence: sentence, Raw: make(map[string]float64, len(d.models))}
		for mi, m := range d.models {
			p := raw[si][mi]
			ss.Raw[m.Name()] = p
			d.scale.Observe(m.Name(), p)
			zbuf[mi] = d.scale.Standardize(m.Name(), p)
		}
		ss.Combined = d.combine.Combine(zbuf) // Eq. 5 (or a §VI gate)
		adjusted := ss.Combined + d.shift
		if adjusted <= 0 {
			adjusted = d.floor
		}
		combined[si] = adjusted
		verdict.Sentences[si] = ss
	}
	score, err := d.agg.Aggregate(combined, d.floor) // Eq. 6
	if err != nil {
		return Verdict{}, err
	}
	verdict.Score = score
	return verdict, nil
}

// Calibrate runs the detector's models over the given triples purely to
// accumulate normalization moments (the "previous responses" of Eq. 4),
// then freezes the scaler. It is the recommended preparation step
// before batch evaluation or parallel scoring. Every probability is
// collected before any is observed, so a failed calibration leaves the
// scaler untouched and unfrozen.
func (d *Detector) Calibrate(ctx context.Context, triples []Triple) error {
	type observation struct {
		model string
		p     float64
	}
	var obs []observation
	for _, t := range triples {
		for _, sentence := range d.split(t.Response) {
			for _, m := range d.models {
				p, err := yesProbability(ctx, m, t.Question, t.Context, sentence)
				if err != nil {
					return fmt.Errorf("core: calibrate: %w", err)
				}
				obs = append(obs, observation{m.Name(), p})
			}
		}
	}
	for _, o := range obs {
		d.scale.Observe(o.model, o.p)
	}
	d.scale.Freeze()
	return nil
}

// Triple is one (question, context, response) unit of work.
type Triple struct {
	Question string
	Context  string
	Response string
}
