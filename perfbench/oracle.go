package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rag"
	"repro/internal/slm"
	"repro/internal/vecdb"
)

// threshold is ragserver's default acceptance threshold (-threshold).
const threshold = 3.2

// benchDim and the chunker mirror ragserver's defaults, so the oracles
// see exactly the vectors and passages the server stores.
const benchDim = 256

// parallelFor runs fn(i) for i in [0, n) on workers goroutines.
func parallelFor(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmModels fills each model's prompt memo for every (triple,
// sentence) on workers goroutines, so a following sequential
// Calibrate only reads memoised values. The memo holds pure functions
// of the prompt, so the calibrated moments are the same either way.
func warmModels(models []slm.Model, triples []core.Triple, workers int) {
	type job struct {
		m   slm.Model
		req slm.VerifyRequest
	}
	var jobs []job
	for _, t := range triples {
		for _, s := range core.SentenceSplitter(t.Response) {
			for _, m := range models {
				jobs = append(jobs, job{m, slm.VerifyRequest{Question: t.Question, Context: t.Context, Claim: s}})
			}
		}
	}
	parallelFor(len(jobs), workers, func(i int) {
		jobs[i].m.YesProbability(context.Background(), jobs[i].req)
	})
}

// newOracleDetector is the benchmark's own core.NewProposed(),
// calibrated on the same triples ragserver -seed-demo uses.
func newOracleDetector(cal []core.Triple, workers int) (*core.Detector, error) {
	d, err := core.NewProposed()
	if err != nil {
		return nil, err
	}
	warmModels(d.Models(), cal, workers)
	if err := d.Calibrate(context.Background(), cal); err != nil {
		return nil, err
	}
	return d, nil
}

// verdictWire is the JSON verdict ragserver returns.
type verdictWire struct {
	Score     float64 `json:"score"`
	Trusted   bool    `json:"trusted"`
	Sentences []struct {
		Sentence string             `json:"sentence"`
		Combined float64            `json:"combined"`
		Raw      map[string]float64 `json:"raw"`
	} `json:"sentences"`
}

// sameVerdict reports whether the wire verdict is bit-identical to v.
func sameVerdict(w verdictWire, v core.Verdict) error {
	if math.Float64bits(w.Score) != math.Float64bits(v.Score) {
		return fmt.Errorf("score %v, oracle %v", w.Score, v.Score)
	}
	if w.Trusted != v.IsCorrect(threshold) {
		return fmt.Errorf("trusted %v, oracle %v", w.Trusted, !w.Trusted)
	}
	if len(w.Sentences) != len(v.Sentences) {
		return fmt.Errorf("%d sentences, oracle %d", len(w.Sentences), len(v.Sentences))
	}
	for i, s := range w.Sentences {
		o := v.Sentences[i]
		if s.Sentence != o.Sentence || math.Float64bits(s.Combined) != math.Float64bits(o.Combined) || len(s.Raw) != len(o.Raw) {
			return fmt.Errorf("sentence %d differs", i)
		}
		for k, p := range s.Raw {
			if math.Float64bits(p) != math.Float64bits(o.Raw[k]) {
				return fmt.Errorf("sentence %d model %s: %v, oracle %v", i, k, p, o.Raw[k])
			}
		}
	}
	return nil
}

// scoreAll scores triples with det on workers goroutines.
func scoreAll(det *core.Detector, triples []core.Triple, workers int) ([]core.Verdict, []error) {
	out := make([]core.Verdict, len(triples))
	errs := make([]error, len(triples))
	parallelFor(len(triples), workers, func(i int) {
		t := triples[i]
		out[i], errs[i] = det.Score(context.Background(), t.Question, t.Context, t.Response)
	})
	return out, errs
}

// f1 is the F1 score of predicted-correct against labelled-correct.
func f1(pred, label []bool) float64 {
	var tp, fp, fn float64
	for i := range pred {
		switch {
		case pred[i] && label[i]:
			tp++
		case pred[i]:
			fp++
		case label[i]:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	return 2 * tp / (2*tp + fp + fn)
}

// vectorOracle is a single-process exact (flat) vecdb over the same
// passages a server acknowledged: the demo contexts as stored whole,
// then every streamed document split by the server's chunker.
type vectorOracle struct{ db *vecdb.DB }

func newVectorOracle(demo []string, streamed [][]string) (*vectorOracle, error) {
	db, err := vecdb.NewDefault(benchDim)
	if err != nil {
		return nil, err
	}
	for _, t := range demo {
		if _, err := db.Add(t, nil); err != nil {
			return nil, err
		}
	}
	ch := rag.DefaultChunker()
	for _, docs := range streamed {
		chunks := make([][]string, len(docs))
		errs := make([]error, len(docs))
		parallelFor(len(docs), 2, func(i int) { chunks[i], errs[i] = ch.Chunk(docs[i]) })
		for i, cs := range chunks {
			if errs[i] != nil {
				return nil, errs[i]
			}
			for _, c := range cs {
				if _, err := db.Add(c, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	return &vectorOracle{db: db}, nil
}

// search returns the oracle's top-k for q, extended past k until the
// run of hits tied with the k-th score is complete, so sameHits and
// sameContext can accept any member of a tie that straddles rank k.
func (o *vectorOracle) search(q string, k int) ([]vecdb.Hit, error) {
	for depth := 2 * k; ; depth *= 2 {
		hits, err := o.db.Search(q, depth)
		if err != nil {
			return nil, err
		}
		if len(hits) <= k || len(hits) < depth || hits[len(hits)-1].Score != hits[k-1].Score {
			return hits, nil
		}
	}
}

// hitWire is one /search hit.
type hitWire struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
	Text  string  `json:"text"`
}

// sameHits reports whether a /search reply is byte-identical to the
// oracle's ranking in passage text and score, up to the order of hits
// with equal scores: rank by rank the scores must match bit for bit,
// and each run of equal scores must return passages the oracle also
// ranks at that score. want must extend past k (vectorOracle.search
// does) so a tie straddling rank k is seen whole. IDs are not compared: the streaming
// pipeline chunks documents concurrently, so the IDs it allocates
// follow chunking order, not stream order.
func sameHits(got []hitWire, want []vecdb.Hit, k int) error {
	if len(want) > k && len(got) != k || len(want) <= k && len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle %d", len(got), len(want))
	}
	pool := map[uint64]map[string]int{}
	for _, h := range want {
		b := math.Float64bits(h.Score)
		if pool[b] == nil {
			pool[b] = map[string]int{}
		}
		pool[b][h.Text]++
	}
	for i, h := range got {
		b := math.Float64bits(h.Score)
		if b != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: score %v, oracle %v", i, h.Score, want[i].Score)
		}
		if pool[b][h.Text] == 0 {
			return fmt.Errorf("rank %d: %q is not among the oracle's passages at score %v", i, h.Text, h.Score)
		}
		pool[b][h.Text]--
	}
	return nil
}

// sameContext reports whether ctx (an /ask context: the top-k passage
// texts joined by spaces, as rag.Context renders them) is a valid
// rendering of the oracle's top-k, allowing any order among passages
// with equal scores. want must extend past k, as for sameHits.
func sameContext(ctx string, want []vecdb.Hit, k int) bool {
	if len(want) < k {
		k = len(want)
	}
	pool := map[uint64]map[string]int{}
	for _, h := range want {
		b := math.Float64bits(h.Score)
		if pool[b] == nil {
			pool[b] = map[string]int{}
		}
		pool[b][h.Text]++
	}
	var match func(rest string, rank int) bool
	match = func(rest string, rank int) bool {
		if rank == k {
			return rest == ""
		}
		p := pool[math.Float64bits(want[rank].Score)]
		for text, n := range p {
			if n == 0 {
				continue
			}
			next, ok := strings.CutPrefix(rest, text)
			if !ok {
				continue
			}
			if rank < k-1 {
				if next, ok = strings.CutPrefix(next, " "); !ok {
					continue
				}
			}
			p[text]--
			found := match(next, rank+1)
			p[text]++
			if found {
				return true
			}
		}
		return false
	}
	return match(ctx, 0)
}

// recallAt is the share of the oracle's top-k that the reply also
// returned, counting a passage tied with the oracle's k-th score as a
// match for any passage at that score.
func recallAt(got []hitWire, want []vecdb.Hit, k int) float64 {
	if len(want) == 0 {
		return 1
	}
	if len(want) > k {
		want = want[:k]
	}
	cut := want[len(want)-1].Score
	need := map[string]int{}
	for _, h := range want {
		need[h.Text]++
	}
	found := 0
	for _, h := range got {
		if need[h.Text] > 0 {
			need[h.Text]--
			found++
		} else if h.Score == cut {
			found++
		}
	}
	if found > len(want) {
		found = len(want)
	}
	return float64(found) / float64(len(want))
}
