package vecdb

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFiniteVector reports a NaN or ±Inf coordinate in a vector
// given to an index Add or Search.
var ErrNonFiniteVector = errors.New("vecdb: non-finite vector coordinate")

// rowSet is the dense vector storage shared by FlatIndex, IVFIndex and
// HNSWIndex: exact float32 rows (the re-rank and exact-scan substrate),
// a nonzero mirror of every row with at most dim/2 nonzeros that the
// exact Cosine/Dot score reads instead of the dense row, per-row norms
// precomputed once at insertion so cosine never recomputes a stored
// norm per comparison, and — when quantization is configured — a
// blocked int8 code mirror the scan path reads instead of the floats.
// Rows are dense and swap-with-last deleted; ids/pos map caller
// document IDs onto row indexes.
type rowSet struct {
	dim   int
	quant QuantConfig

	ids  []int64
	pos  map[int64]int
	vecs [][]float32
	// sparse[row] holds the row's nonzero coordinates in ascending
	// index order when there are at most dim/2 of them (non-nil even
	// for an all-zero row) and is nil for a denser row, which the exact
	// score reads from vecs. At dim/2 nonzeros the 8-byte entries take
	// exactly the dense row's bytes.
	sparse [][]sparseEntry
	// nz is add's scratch for gathering a row's nonzeros, dim long.
	nz []sparseEntry
	// norms / normSqs are float64 and computed with exactly the same
	// accumulation as norm()/l2Squared, so precomputation changes no
	// score bit anywhere.
	norms   []float64
	normSqs []float64
	codes   *blockedCodes // nil when quant.Kind == QuantNone
}

func newRowSet(dim int, q QuantConfig) rowSet {
	rs := rowSet{dim: dim, quant: q, pos: map[int64]int{}, nz: make([]sparseEntry, dim)}
	if q.Kind == QuantInt8 {
		rs.codes = newBlockedCodes(dim)
	}
	return rs
}

func (s *rowSet) len() int { return len(s.ids) }

// quantized reports whether the scan path reads int8 codes.
func (s *rowSet) quantized() bool { return s.codes != nil }

// checkDim rejects a vector of the wrong width; what names it in the
// error ("vector" or "query").
func (s *rowSet) checkDim(v []float32, what string) error {
	if len(v) != s.dim {
		return fmt.Errorf("%w: index dim %d, %s dim %d", ErrDimMismatch, s.dim, what, len(v))
	}
	return nil
}

// checkFinite rejects a vector with a NaN or ±Inf coordinate, read off
// sq, its Σ v[i]² in float64: sq is finite exactly when every
// coordinate is, since no float32 square overflows a float64 sum.
// Non-finite values would also break the exact scan's equivalence:
// 0·Inf is NaN in the dense sum but is skipped by the nonzero mirror.
func checkFinite(sq float64, what string) error {
	if sq-sq != 0 { // NaN exactly when sq is NaN or +Inf
		return fmt.Errorf("%w in %s", ErrNonFiniteVector, what)
	}
	return nil
}

// add copies vec in under id, replacing an existing row for the same
// id, and returns the row index. A vector of the wrong width or with a
// non-finite coordinate is rejected and leaves the set unchanged.
func (s *rowSet) add(id int64, vec []float32) (int, error) {
	if err := s.checkDim(vec, "vector"); err != nil {
		return 0, err
	}
	cp := make([]float32, len(vec))
	copy(cp, vec)
	// One pass computes the norm and gathers the nonzeros into the
	// scratch without a branch: every coordinate is written at nz[nnz],
	// and only a nonzero one advances nnz. ±0 is skipped (see
	// sparseDot): p is +0 exactly when v is ±0, and b|-b has its top
	// bit set exactly when b is nonzero.
	nz := s.nz[:len(cp)]
	var sq float64
	nnz := 0
	for i, v := range cp {
		nz[nnz] = sparseEntry{idx: int32(i), val: v}
		p := float64(v) * float64(v)
		sq += p
		b := math.Float64bits(p)
		nnz += int((b | -b) >> 63)
	}
	if err := checkFinite(sq, "vector"); err != nil {
		return 0, err
	}
	var sp []sparseEntry
	if nnz <= s.dim/2 {
		sp = make([]sparseEntry, nnz)
		copy(sp, nz)
	}
	n := math.Sqrt(sq)
	if p, ok := s.pos[id]; ok {
		s.vecs[p] = cp
		s.sparse[p] = sp
		s.norms[p] = n
		s.normSqs[p] = sq
		if s.codes != nil {
			s.codes.set(p, cp)
		}
		return p, nil
	}
	p := len(s.ids)
	s.pos[id] = p
	s.ids = append(s.ids, id)
	s.vecs = append(s.vecs, cp)
	s.sparse = append(s.sparse, sp)
	s.norms = append(s.norms, n)
	s.normSqs = append(s.normSqs, sq)
	if s.codes != nil {
		s.codes.append(cp)
	}
	return p, nil
}

// remove deletes id by swapping the last row into its slot. Removing
// an absent id returns false.
func (s *rowSet) remove(id int64) bool {
	p, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.ids) - 1
	if p != last {
		s.ids[p] = s.ids[last]
		s.vecs[p] = s.vecs[last]
		s.sparse[p] = s.sparse[last]
		s.norms[p] = s.norms[last]
		s.normSqs[p] = s.normSqs[last]
		if s.codes != nil {
			s.codes.moveRow(p, last)
		}
		s.pos[s.ids[p]] = p
	}
	s.ids = s.ids[:last]
	s.vecs = s.vecs[:last]
	s.sparse = s.sparse[:last]
	s.norms = s.norms[:last]
	s.normSqs = s.normSqs[:last]
	if s.codes != nil {
		s.codes.truncate()
	}
	delete(s.pos, id)
	return true
}

// vec returns the exact float32 row for id.
func (s *rowSet) vec(id int64) ([]float32, bool) {
	p, ok := s.pos[id]
	if !ok {
		return nil, false
	}
	return s.vecs[p], true
}

// preparedQuery caches every per-query term the scan reuses across
// comparisons: the query widened to float64 for the nonzero scan, the
// float sums and norms (computed once instead of per stored vector)
// and, on a quantized set, the symmetric int8 quantization of the query
// feeding the integer dot kernel.
type preparedQuery struct {
	vec    []float32
	qd     []float64 // float64(vec[i]), indexed by sparseDot
	sum    float64   // Σ q[d], the offset term of the asymmetric dot
	norm   float64   // ‖q‖, identical to norm(q)
	normSq float64
	qc     []int8  // int8 codes of the query (quantized sets only)
	qscale float64 // query dequant scale: q[d] ≈ qscale·qc[d]
}

// prepareQuery checks a caller's query like add checks a vector and
// builds its context.
func (s *rowSet) prepareQuery(q []float32) (preparedQuery, error) {
	if err := s.checkDim(q, "query"); err != nil {
		return preparedQuery{}, err
	}
	pq := s.prepare(q)
	if err := checkFinite(pq.normSq, "query"); err != nil {
		return preparedQuery{}, err
	}
	return pq, nil
}

// prepare builds the query context for a vector of the set's width
// with finite coordinates. The one-off cost is O(dim), amortized over
// every stored vector the query is compared against.
func (s *rowSet) prepare(q []float32) preparedQuery {
	pq := preparedQuery{vec: q, qd: make([]float64, len(q))}
	var maxAbs float64
	for i, v := range q {
		f := float64(v)
		pq.qd[i] = f
		pq.sum += f
		pq.normSq += f * f
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}
	pq.norm = math.Sqrt(pq.normSq)
	if s.codes == nil {
		return pq
	}
	pq.qc = make([]int8, len(q))
	if maxAbs == 0 {
		return pq
	}
	pq.qscale = maxAbs / 127
	inv := 1 / pq.qscale
	for i, v := range q {
		c := math.Round(float64(v) * inv)
		switch {
		case c > 127:
			c = 127
		case c < -127:
			c = -127
		}
		pq.qc[i] = int8(c)
	}
	return pq
}

// exactScore is the metric score against the exact float32 row, with
// stored norms read instead of recomputed — bit-identical to
// Similarity on the same operands.
func (s *rowSet) exactScore(m Metric, row int, pq *preparedQuery) float64 {
	switch m {
	case Cosine:
		n := s.norms[row]
		if n == 0 || pq.norm == 0 {
			return 0
		}
		return s.dot(row, pq) / (pq.norm * n)
	case Dot:
		return s.dot(row, pq)
	default: // L2: a zero row coordinate still adds q[i]², so no skipping
		return -l2Squared(pq.vec, s.vecs[row])
	}
}

// dot is ⟨q, row⟩ over the row's nonzero mirror when it has one and
// over the dense row otherwise; both give dotProduct's bits.
func (s *rowSet) dot(row int, pq *preparedQuery) float64 {
	if sp := s.sparse[row]; sp != nil {
		return sparseDot(pq.qd, sp)
	}
	return dotProduct(pq.vec, s.vecs[row])
}

// approxScore is the asymmetric quantized score: one int8 dot kernel
// call plus the precomputed offset/norm terms.
func (s *rowSet) approxScore(m Metric, row int, pq *preparedQuery) float64 {
	c := s.codes
	d := pq.qscale*float64(c.scales[row])*float64(dotInt8(pq.qc, c.row(row))) +
		float64(c.offsets[row])*pq.sum
	switch m {
	case Cosine:
		n := s.norms[row]
		if n == 0 || pq.norm == 0 {
			return 0
		}
		return d / (pq.norm * n)
	case Dot:
		return d
	default: // L2
		return -(pq.normSq - 2*d + s.normSqs[row])
	}
}

// scoreRow dispatches to the quantized or exact scorer.
func (s *rowSet) scoreRow(m Metric, row int, pq *preparedQuery) float64 {
	if s.codes != nil {
		return s.approxScore(m, row, pq)
	}
	return s.exactScore(m, row, pq)
}

// scanInto pushes every row's scan score into the bounded top-depth
// heap — the full-scan inner loop of FlatIndex and of each probed IVF
// list (via scanIDs).
func (s *rowSet) scanInto(h *resultHeap, depth int, m Metric, pq *preparedQuery) {
	if s.codes != nil {
		for row := range s.ids {
			pushTopK(h, depth, Result{ID: s.ids[row], Score: s.approxScore(m, row, pq)})
		}
		return
	}
	for row := range s.ids {
		pushTopK(h, depth, Result{ID: s.ids[row], Score: s.exactScore(m, row, pq)})
	}
}

// rerank re-scores candidates against the exact float32 rows and
// returns the top-k, best first — the second stage of a quantized
// search. Candidates whose row vanished under a concurrent structural
// change are skipped.
func (s *rowSet) rerank(m Metric, pq *preparedQuery, cands []Result, k int) []Result {
	h := make(resultHeap, 0, k)
	for _, c := range cands {
		row, ok := s.pos[c.ID]
		if !ok {
			continue
		}
		pushTopK(&h, k, Result{ID: c.ID, Score: s.exactScore(m, row, pq)})
	}
	return drainSorted(&h)
}

// memory reports the set's storage footprint for benchmarks and
// /stats: exact float rows, nonzero mirrors, quantized code blocks,
// per-row parameters, and the bytes the scan path actually touches per
// query.
func (s *rowSet) memory() IndexMemory {
	n := int64(len(s.ids))
	rowBytes := int64(s.dim) * 4
	m := IndexMemory{
		Vectors:    len(s.ids),
		FloatBytes: n * rowBytes,
		// Per-row norm+normSq (float64 each); the scan reads only the
		// norm, and only under Cosine.
		ParamBytes: n * 16,
	}
	for _, sp := range s.sparse {
		if sp != nil {
			m.SparseRows++
			m.SparseBytes += int64(len(sp)) * 8 // int32 index + float32 value
		}
	}
	if s.codes != nil {
		m.CodeBytes = n * int64(s.dim)
		m.ParamBytes += n * 8 // scale + offset
		// Quantized scan: codes + scale/offset + norm.
		m.ScanBytes = m.CodeBytes + n*16
	} else {
		// Exact scan: each row's mirror or dense floats, + norm.
		m.ScanBytes = m.SparseBytes + (n-int64(m.SparseRows))*rowBytes + n*8
	}
	return m
}

// IndexMemory describes an index's storage footprint, in bytes.
type IndexMemory struct {
	// Vectors is the stored vector count.
	Vectors int `json:"vectors"`
	// FloatBytes is the exact float32 rows (kept for re-ranking even
	// when the scan is quantized).
	FloatBytes int64 `json:"float_bytes"`
	// SparseRows counts the rows with a nonzero mirror (at most dim/2
	// nonzeros), which the exact Cosine/Dot score reads instead of the
	// dense row.
	SparseRows int `json:"sparse_rows"`
	// SparseBytes is those mirrors: 8 bytes per nonzero.
	SparseBytes int64 `json:"sparse_bytes"`
	// CodeBytes is the int8 code blocks (0 without quantization).
	CodeBytes int64 `json:"code_bytes"`
	// ParamBytes is per-vector scalar state: norms, and scale/offset
	// under quantization.
	ParamBytes int64 `json:"param_bytes"`
	// ScanBytes is what a full scan touches per query — the
	// cache-resident working set: codes+scale/offset+norm when
	// quantized, otherwise each row's mirror (or its floats when it has
	// none) + norm.
	ScanBytes int64 `json:"scan_bytes"`
	// GraphBytes is index-structure overhead (HNSW links, IVF lists).
	GraphBytes int64 `json:"graph_bytes"`
}

// TotalBytes sums every component.
func (m IndexMemory) TotalBytes() int64 {
	return m.FloatBytes + m.SparseBytes + m.CodeBytes + m.ParamBytes + m.GraphBytes
}

// Plus adds o's counts to m's, aggregating footprints across shards.
func (m IndexMemory) Plus(o IndexMemory) IndexMemory {
	m.Vectors += o.Vectors
	m.FloatBytes += o.FloatBytes
	m.SparseRows += o.SparseRows
	m.SparseBytes += o.SparseBytes
	m.CodeBytes += o.CodeBytes
	m.ParamBytes += o.ParamBytes
	m.ScanBytes += o.ScanBytes
	m.GraphBytes += o.GraphBytes
	return m
}

// MemoryReporter is implemented by indexes that can account their
// storage footprint (all three built-ins do).
type MemoryReporter interface {
	Memory() IndexMemory
}

// StageObservable is implemented by indexes that can report internal
// stage timings (currently the quantized re-rank) to a telemetry
// sink. The observer is called as fn(stage, seconds) on the search
// path; a nil fn detaches.
type StageObservable interface {
	SetStageObserver(fn func(stage string, seconds float64))
}
