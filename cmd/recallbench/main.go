// Command recallbench measures the recall/latency/memory trade-off of
// the vector index configurations the serving layer can run: index kind
// (flat, ivf, hnsw) × quantization (none, int8) × search-breadth knobs
// (nprobe, ef-search, rerank-k).
//
// The corpus is a deterministic Gaussian-mixture point cloud generated
// from internal/rng, so every run on every machine sees the same
// vectors and the same ground truth. Queries are perturbed corpus
// vectors; ground truth is the exact float32 flat scan. For each
// configuration the tool reports recall@k against that ground truth,
// p50/p99 query latency (quantiles over each query's minimum across
// -rounds passes, which absorbs warm-up and scheduler noise), and the
// per-vector memory footprint split into scan working set and total
// residency.
//
// Latency numbers are machine-dependent; ratios against the in-run
// flat/float32 baseline (p99_vs_baseline) are not, which is what the
// -check gate compares against a committed snapshot. Recall and memory
// are exactly reproducible.
//
// Usage:
//
//	recallbench [-n 50000] [-dim 256] [-queries 200] [-k 10] [-rounds 3]
//	            [-smoke] [-out BENCH_vector.json] [-check BENCH_vector.json]
//	            [-min-recall 0.95] [-p99-tol 0.2]
//
// -smoke shrinks the corpus for CI (n=4000) and reads/writes the
// "smoke" section of the output file instead of "full"; the two
// sections coexist in one committed BENCH_vector.json. -out merges the
// run into the file, preserving the other section. -check re-runs the
// sweep and fails (exit 1) if any gated configuration's recall@k drops
// below -min-recall or any configuration's p99-vs-baseline ratio
// regresses more than -p99-tol against the snapshot's same ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/vecdb"
)

// spec is one point in the sweep. Names are stable identifiers: the
// -check gate joins current results to snapshot results by Name.
type spec struct {
	Name     string
	Kind     string // flat | ivf | hnsw
	Quantize vecdb.QuantKind
	RerankK  int
	NList    int
	NProbe   int
	M        int
	EfCons   int
	EfSearch int
	// GateRecall marks configurations whose recall@k must clear
	// -min-recall in -check mode. Deliberately narrower probes (ivf
	// nprobe=8) trade recall for speed and are reported but not gated.
	GateRecall bool
}

// result is one row of the report, JSON-stable.
type result struct {
	Name     string `json:"name"`
	Kind     string `json:"index"`
	Quantize string `json:"quantize"`
	RerankK  int    `json:"rerank_k,omitempty"`
	NProbe   int    `json:"nprobe,omitempty"`
	EfSearch int    `json:"ef_search,omitempty"`
	Gated    bool   `json:"gated,omitempty"`

	RecallAtK float64 `json:"recall_at_k"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// P99VsBaseline is this configuration's p99 divided by the in-run
	// flat/float32 p99 — the machine-independent number the regression
	// gate tracks.
	P99VsBaseline float64 `json:"p99_vs_baseline"`

	ScanBytesPerVec  float64 `json:"scan_bytes_per_vector"`
	TotalBytesPerVec float64 `json:"total_bytes_per_vector"`
	// SparseRowShare is the share of rows the exact scan reads through
	// their nonzero mirror (at most dim/2 nonzeros); recallbench's
	// Gaussian corpus is dense, so it is 0 and omitted there.
	SparseRowShare float64 `json:"sparse_row_share,omitempty"`
	// ScanReduction is baseline scan bytes / this config's scan bytes:
	// how much smaller the per-query working set is than the float path.
	ScanReduction float64 `json:"scan_reduction_x"`

	BuildMillis float64 `json:"build_ms"`
}

// report is one full sweep at one corpus size.
type report struct {
	N       int      `json:"n"`
	Dim     int      `json:"dim"`
	Queries int      `json:"queries"`
	K       int      `json:"k"`
	Rounds  int      `json:"rounds"`
	Configs []result `json:"configs"`
}

// benchFile is the committed BENCH_vector.json shape: the full-size
// acceptance run and the small CI smoke run live side by side so the
// smoke gate always diffs like against like.
type benchFile struct {
	Full  *report `json:"full,omitempty"`
	Smoke *report `json:"smoke,omitempty"`
}

func main() {
	var (
		n       = flag.Int("n", 50000, "corpus size (vectors)")
		dim     = flag.Int("dim", 256, "vector dimensionality")
		queries = flag.Int("queries", 200, "number of benchmark queries")
		k       = flag.Int("k", 10, "top-k depth for recall@k")
		rounds  = flag.Int("rounds", 3, "timing passes; each query keeps its fastest round")
		smoke   = flag.Bool("smoke", false, "CI-sized run (n=4000) targeting the 'smoke' section")
		out     = flag.String("out", "", "merge this run into the given BENCH_vector.json")
		check   = flag.String("check", "", "compare this run against the given snapshot and gate")
		minRec  = flag.Float64("min-recall", 0.95, "recall@k floor for gated configurations in -check mode")
		p99Tol  = flag.Float64("p99-tol", 0.2, "allowed relative growth of p99_vs_baseline in -check mode")
	)
	flag.Parse()
	// Smoke keeps the corpus small but the query count high: p99 over
	// few queries degenerates to the max sample and flakes the gate.
	if *smoke {
		*n, *queries, *rounds = 4000, 200, 3
	}

	rep := runSweep(*n, *dim, *queries, *k, *rounds)
	printTable(rep)

	if *out != "" {
		if err := mergeInto(*out, rep, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "recallbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s section of %s\n", sectionName(*smoke), *out)
	}
	if *check != "" {
		if err := gate(*check, rep, *smoke, *minRec, *p99Tol); err != nil {
			fmt.Fprintf(os.Stderr, "recallbench: GATE FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate OK against %s (%s section): recall >= %.2f, p99 ratio drift <= %.0f%%\n",
			*check, sectionName(*smoke), *minRec, *p99Tol*100)
	}
}

func sectionName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// sweep returns the fixed configuration grid for a corpus of size n.
func sweep(n, k int) []spec {
	nlist := 128
	if n < nlist*32 {
		nlist = n / 32
		if nlist < 8 {
			nlist = 8
		}
	}
	np := func(p int) int {
		if p > nlist {
			return nlist
		}
		return p
	}
	return []spec{
		{Name: "flat-float", Kind: "flat", Quantize: vecdb.QuantNone},
		{Name: "flat-int8-rk", Kind: "flat", Quantize: vecdb.QuantInt8, RerankK: k},
		{Name: "flat-int8-r4k", Kind: "flat", Quantize: vecdb.QuantInt8, RerankK: 4 * k, GateRecall: true},
		{Name: "ivf-float-p8", Kind: "ivf", Quantize: vecdb.QuantNone, NList: nlist, NProbe: np(8)},
		{Name: "ivf-int8-p8", Kind: "ivf", Quantize: vecdb.QuantInt8, RerankK: 4 * k, NList: nlist, NProbe: np(8)},
		{Name: "ivf-int8-p16", Kind: "ivf", Quantize: vecdb.QuantInt8, RerankK: 4 * k, NList: nlist, NProbe: np(16), GateRecall: true},
		{Name: "hnsw-float-e64", Kind: "hnsw", Quantize: vecdb.QuantNone, M: 16, EfCons: 100, EfSearch: 64},
		{Name: "hnsw-int8-e64", Kind: "hnsw", Quantize: vecdb.QuantInt8, RerankK: 4 * k, M: 16, EfCons: 100, EfSearch: 64, GateRecall: true},
	}
}

func runSweep(n, dim, nq, k, rounds int) *report {
	fmt.Printf("corpus: n=%d dim=%d queries=%d k=%d rounds=%d\n", n, dim, nq, k, rounds)
	corpus := makeCorpus(n, dim)
	qs := makeQueries(corpus, nq)

	rep := &report{N: n, Dim: dim, Queries: nq, K: k, Rounds: rounds}
	var truth [][]int64
	var basePrototype result
	for _, sp := range sweep(n, k) {
		start := time.Now()
		idx, err := build(sp, dim, corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recallbench: build %s: %v\n", sp.Name, err)
			os.Exit(1)
		}
		buildMS := float64(time.Since(start)) / float64(time.Millisecond)
		if truth == nil {
			// First config is the exact flat/float32 scan: its results ARE
			// the ground truth.
			truth = groundTruth(idx, qs, k)
		}
		r := measure(sp, idx, qs, truth, k, rounds)
		r.BuildMillis = round2(buildMS)
		if len(rep.Configs) == 0 {
			basePrototype = r
		}
		r.P99VsBaseline = round3(r.P99Micros / basePrototype.P99Micros)
		r.ScanReduction = round2(basePrototype.ScanBytesPerVec / r.ScanBytesPerVec)
		rep.Configs = append(rep.Configs, r)
		fmt.Printf("  %-16s recall@%d=%.4f p50=%.0fus p99=%.0fus scan=%.0fB/vec sparse=%.2f build=%.0fms\n",
			sp.Name, k, r.RecallAtK, r.P50Micros, r.P99Micros, r.ScanBytesPerVec, r.SparseRowShare, buildMS)
	}
	return rep
}

// makeCorpus draws n vectors from a 64-component Gaussian mixture —
// clustered like real embedding spaces, so IVF/HNSW behave
// realistically rather than degenerating on uniform noise.
func makeCorpus(n, dim int) [][]float32 {
	src := rng.NewFromString("recallbench-corpus-v1")
	centers := 64
	if centers > n/8 && n >= 8 {
		centers = n / 8
	}
	cent := make([][]float64, centers)
	for c := range cent {
		cent[c] = make([]float64, dim)
		for d := range cent[c] {
			cent[c][d] = src.NormFloat64()
		}
	}
	corpus := make([][]float32, n)
	for i := range corpus {
		c := cent[src.Intn(centers)]
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(c[d] + 0.25*src.NormFloat64())
		}
		corpus[i] = v
	}
	return corpus
}

// makeQueries perturbs evenly spaced corpus vectors: each query has a
// known dense neighbourhood, so recall@k is a meaningful measurement
// rather than noise over near-ties.
func makeQueries(corpus [][]float32, nq int) [][]float32 {
	src := rng.NewFromString("recallbench-queries-v1")
	stride := len(corpus) / nq
	if stride < 1 {
		stride = 1
	}
	qs := make([][]float32, nq)
	for i := range qs {
		base := corpus[(i*stride)%len(corpus)]
		q := make([]float32, len(base))
		for d := range q {
			q[d] = base[d] + float32(0.05*src.NormFloat64())
		}
		qs[i] = q
	}
	return qs
}

func build(sp spec, dim int, corpus [][]float32) (vecdb.Index, error) {
	q := vecdb.QuantConfig{Kind: sp.Quantize, RerankK: sp.RerankK}
	var (
		idx vecdb.Index
		err error
	)
	switch sp.Kind {
	case "flat":
		idx, err = vecdb.NewFlatIndexQ(vecdb.Cosine, dim, q)
	case "ivf":
		ivf, e := vecdb.NewIVFIndexQ(vecdb.Cosine, dim, sp.NList, sp.NProbe, q)
		if e != nil {
			return nil, e
		}
		sample := corpus
		if max := sp.NList * 64; len(sample) > max {
			sample = sample[:max]
		}
		if e := ivf.Train(sample, 0); e != nil {
			return nil, e
		}
		idx = ivf
	case "hnsw":
		idx, err = vecdb.NewHNSWIndexQ(vecdb.Cosine, dim, sp.M, sp.EfCons, sp.EfSearch, q)
	default:
		return nil, fmt.Errorf("unknown kind %q", sp.Kind)
	}
	if err != nil {
		return nil, err
	}
	for i, v := range corpus {
		if err := idx.Add(int64(i), v); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

func groundTruth(exact vecdb.Index, qs [][]float32, k int) [][]int64 {
	truth := make([][]int64, len(qs))
	for i, q := range qs {
		res, err := exact.Search(q, k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recallbench: ground truth: %v\n", err)
			os.Exit(1)
		}
		ids := make([]int64, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		truth[i] = ids
	}
	return truth
}

func measure(sp spec, idx vecdb.Index, qs [][]float32, truth [][]int64, k, rounds int) result {
	r := result{
		Name: sp.Name, Kind: sp.Kind, Quantize: sp.Quantize.String(),
		RerankK: sp.RerankK, NProbe: sp.NProbe, EfSearch: sp.EfSearch,
		Gated: sp.GateRecall,
	}
	// Each query keeps its fastest time across rounds: the per-query
	// minimum strips scheduler spikes, so the p99 of those minimums
	// reflects genuine per-query cost instead of machine noise.
	lat := make([]float64, len(qs))
	for i := range lat {
		lat[i] = math.Inf(1)
	}
	var hits, want int
	for round := 0; round < rounds; round++ {
		hits, want = 0, 0
		for i, q := range qs {
			t0 := time.Now()
			res, err := idx.Search(q, k)
			if d := float64(time.Since(t0)) / float64(time.Microsecond); d < lat[i] {
				lat[i] = d
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "recallbench: search %s: %v\n", sp.Name, err)
				os.Exit(1)
			}
			got := map[int64]bool{}
			for _, h := range res {
				got[h.ID] = true
			}
			for _, id := range truth[i] {
				want++
				if got[id] {
					hits++
				}
			}
		}
	}
	sort.Float64s(lat)
	r.RecallAtK = round4(float64(hits) / float64(want))
	r.P50Micros = round2(quantile(lat, 0.50))
	r.P99Micros = round2(quantile(lat, 0.99))
	if mr, ok := idx.(vecdb.MemoryReporter); ok {
		m := mr.Memory()
		nv := float64(m.Vectors)
		r.ScanBytesPerVec = round2(float64(m.ScanBytes) / nv)
		r.TotalBytesPerVec = round2(float64(m.TotalBytes()) / nv)
		r.SparseRowShare = round4(float64(m.SparseRows) / nv)
	}
	return r
}

// quantile reads the q-quantile from an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

func printTable(rep *report) {
	fmt.Printf("\n%-16s %-8s %-9s %10s %10s %10s %12s %12s %8s\n",
		"config", "index", "quantize", "recall@k", "p50(us)", "p99(us)", "scanB/vec", "totalB/vec", "p99/base")
	for _, c := range rep.Configs {
		fmt.Printf("%-16s %-8s %-9s %10.4f %10.1f %10.1f %12.1f %12.1f %8.3f\n",
			c.Name, c.Kind, c.Quantize, c.RecallAtK, c.P50Micros, c.P99Micros,
			c.ScanBytesPerVec, c.TotalBytesPerVec, c.P99VsBaseline)
	}
	fmt.Println()
}

// mergeInto writes rep into the full or smoke section of path, keeping
// the other section intact so one committed file carries both runs.
func mergeInto(path string, rep *report, smoke bool) error {
	var f benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("parse existing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if smoke {
		f.Smoke = rep
	} else {
		f.Full = rep
	}
	raw, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// gate enforces the committed-snapshot contract: gated configurations
// keep recall@k above the floor, and no configuration's p99 ratio to
// the in-run baseline grows more than p99Tol beyond the snapshot's
// ratio. Ratios — not absolute latencies — cross machines safely.
func gate(path string, rep *report, smoke bool, minRecall, p99Tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	snap := f.Full
	if smoke {
		snap = f.Smoke
	}
	if snap == nil {
		return fmt.Errorf("%s has no %s section", path, sectionName(smoke))
	}
	prev := map[string]result{}
	for _, c := range snap.Configs {
		prev[c.Name] = c
	}
	var failures []string
	for _, c := range rep.Configs {
		if c.Gated && c.RecallAtK < minRecall {
			failures = append(failures,
				fmt.Sprintf("%s: recall@%d %.4f below floor %.2f", c.Name, rep.K, c.RecallAtK, minRecall))
		}
		p, ok := prev[c.Name]
		if !ok {
			continue // new configuration: nothing to regress against
		}
		if p.RecallAtK-c.RecallAtK > 0.02 {
			failures = append(failures,
				fmt.Sprintf("%s: recall@%d fell %.4f -> %.4f", c.Name, rep.K, p.RecallAtK, c.RecallAtK))
		}
		// Absolute slack (+0.25) keeps sub-millisecond smoke runs from
		// flaking on scheduler noise; the relative term carries the
		// >20%-regression contract.
		if c.P99VsBaseline > p.P99VsBaseline*(1+p99Tol)+0.25 {
			failures = append(failures,
				fmt.Sprintf("%s: p99/baseline %.3f regressed beyond %.3f*(1+%.2f)",
					c.Name, c.P99VsBaseline, p.P99VsBaseline, p99Tol))
		}
	}
	if len(failures) > 0 {
		for _, m := range failures {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	return nil
}
