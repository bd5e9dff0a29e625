package core

import (
	"context"
	"fmt"
	"sync"
)

// BatchResult is one triple's outcome from ScoreBatch. Items fail
// independently: an empty response or a model error on one triple does
// not abort the rest of the batch.
type BatchResult struct {
	Verdict Verdict
	Err     error
}

// ScoreBatch verifies a batch of triples in a single fan-out: every
// (triple, sentence, model) call in the batch becomes one job for a
// shared pool of `workers` goroutines, so M verifiers score the whole
// batch concurrently instead of per-request. This is the entry point a
// serving-layer micro-batcher dispatches to.
//
// It differs from BatchScore (approaches.go), the experiment harness's
// per-triple fan-out that fails the whole batch on first error, and
// from the per-request pool inside Score (scoreParallel): ScoreBatch
// parallelizes at the finest grain and isolates failures per item.
//
// Results are returned in input order, one per triple, with per-item
// errors. Parallel execution requires a frozen (or stateless) scaler;
// with an unfrozen Normalizer — or workers <= 1 — the batch degrades
// gracefully to sequential Score calls, preserving the online
// calibration semantics of the single-request path.
func (d *Detector) ScoreBatch(ctx context.Context, triples []Triple, workers int) []BatchResult {
	results := make([]BatchResult, len(triples))
	if len(triples) == 0 {
		return results
	}
	if workers <= 1 || !d.Calibrated() {
		for i, t := range triples {
			v, err := d.Score(ctx, t.Question, t.Context, t.Response)
			results[i] = BatchResult{Verdict: v, Err: err}
		}
		return results
	}

	// Split every response up front; record per-item empty-response
	// errors and collect the job list for the pool.
	type job struct{ ti, si, mi int }
	split := make([][]string, len(triples))
	raw := make([][][]float64, len(triples)) // [triple][sentence][model]
	var jobs []job
	for ti, t := range triples {
		sentences := d.split(t.Response)
		if len(sentences) == 0 {
			results[ti] = BatchResult{Err: fmt.Errorf("%w: %q", ErrEmptyResponse, t.Response)}
			continue
		}
		split[ti] = sentences
		raw[ti] = make([][]float64, len(sentences))
		for si := range sentences {
			raw[ti][si] = make([]float64, len(d.models))
			for mi := range d.models {
				jobs = append(jobs, job{ti, si, mi})
			}
		}
	}
	if len(jobs) == 0 {
		return results
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards per-triple first-error bookkeeping
	)
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				t := triples[j.ti]
				p, err := yesProbability(ctx, d.models[j.mi], t.Question, t.Context, split[j.ti][j.si])
				if err != nil {
					mu.Lock()
					if results[j.ti].Err == nil {
						results[j.ti].Err = fmt.Errorf("core: %w", err)
					}
					mu.Unlock()
					continue
				}
				raw[j.ti][j.si][j.mi] = p
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	for ti := range triples {
		if split[ti] == nil || results[ti].Err != nil {
			continue
		}
		v, err := d.assemble(split[ti], raw[ti])
		results[ti] = BatchResult{Verdict: v, Err: err}
	}
	return results
}
