package vecdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// nonzeros is the reference mirror: v's entries other than ±0, in
// ascending index order.
func nonzeros(v []float32) []sparseEntry {
	out := []sparseEntry{}
	for i, f := range v {
		if f != 0 {
			out = append(out, sparseEntry{idx: int32(i), val: f})
		}
	}
	return out
}

func widen(q []float32) []float64 {
	qd := make([]float64, len(q))
	for i, f := range q {
		qd[i] = float64(f)
	}
	return qd
}

// checkSparseDot holds sparseDot over row's nonzeros to dotProduct bit
// for bit, and rowSet's mirror and exact scores to the reference: a
// mirror exactly when the row has at most dim/2 nonzeros, and Cosine
// and Dot scores with Similarity's bits either way.
func checkSparseDot(t *testing.T, q, row []float32) {
	t.Helper()
	want := dotProduct(q, row)
	nz := nonzeros(row)
	if got := sparseDot(widen(q), nz); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sparseDot = %v (%#x), dotProduct = %v (%#x)\nq=%v\nrow=%v",
			got, math.Float64bits(got), want, math.Float64bits(want), q, row)
	}
	rs := newRowSet(len(row), QuantConfig{})
	r, err := rs.add(1, row)
	if err != nil {
		t.Fatal(err)
	}
	sp := rs.sparse[r]
	if mirrored := len(nz) <= len(row)/2; (sp != nil) != mirrored {
		t.Fatalf("nnz %d of dim %d: mirror present = %v, want %v", len(nz), len(row), sp != nil, mirrored)
	}
	if sp != nil {
		if len(sp) != len(nz) {
			t.Fatalf("mirror has %d entries, want %d", len(sp), len(nz))
		}
		for i := range sp {
			if sp[i] != nz[i] {
				t.Fatalf("mirror[%d] = %+v, want %+v", i, sp[i], nz[i])
			}
		}
	}
	pq := rs.prepare(q)
	for _, m := range []Metric{Cosine, Dot} {
		want, _ := Similarity(m, q, row)
		if got := rs.exactScore(m, r, &pq); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v exactScore = %v, Similarity = %v", m, got, want)
		}
	}
}

// TestSparseDotMatchesDense: the nonzero scan equals the dense dot bit
// for bit on the edge cases of the ±0 argument and on both sides of
// the dim/2 rule.
func TestSparseDotMatchesDense(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	ones := func(dim int) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	cases := []struct {
		name   string
		q, row []float32
	}{
		{"all-zero row", []float32{1, -2, 3, 4}, []float32{0, 0, 0, 0}},
		{"all -0 row", []float32{1, -2, 3, 4}, []float32{negZero, negZero, negZero, negZero}},
		{"-0 row entries", []float32{1, -2, 3, 4}, []float32{negZero, 5, negZero, 0}},
		{"-0 query entries", []float32{negZero, negZero, 3, negZero}, []float32{7, 0, -1, 0}},
		{"zero query", []float32{0, negZero, 0, 0}, []float32{7, 0, -1, 0}},
		{"exact cancellation then -0", []float32{1, 1, -1, 1}, []float32{3, -3, 0, 0}},
		{"cancellation to +0 with -0 product", []float32{2, 2, 5, 0}, []float32{1.5, -1.5, negZero, 0}},
		{"negative products", []float32{-1, 1, -1, 1}, []float32{0, -4, 0, 0}},
		{"order-sensitive magnitudes", ones(8), []float32{1e30, 0, 1, 0, -1e30, 0, 1, 0}},
		{"float32 extremes", []float32{math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -math.MaxFloat32},
			[]float32{math.MaxFloat32, 0, math.SmallestNonzeroFloat32, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSparseDot(t, c.q, c.row) })
	}
	src := rng.NewFromString("sparse-dot")
	for _, dim := range []int{1, 2, 3, 16, 17, 256} {
		for _, nnz := range []int{0, 1, dim / 2, dim/2 + 1, dim} {
			if nnz > dim {
				continue
			}
			for trial := 0; trial < 20; trial++ {
				q, row := make([]float32, dim), make([]float32, dim)
				for i := range q {
					q[i] = float32(src.NormFloat64())
					if src.Intn(4) == 0 {
						q[i] = negZero
					}
				}
				for i, p := range src.Perm(dim) {
					if i < nnz {
						row[p] = float32(src.NormFloat64() * math.Pow(10, float64(src.Intn(20)-10)))
					} else if src.Intn(2) == 0 {
						row[p] = negZero
					}
				}
				checkSparseDot(t, q, row)
			}
		}
	}
}

// FuzzSparseDotMatchesDense checks the nonzero scan against dotProduct
// bitwise on random widths, sparsity and signs of zero. Coordinates
// come from raw float32 bits (every finite magnitude, subnormals
// included) or small integers (exact cancellations). Seeds live in
// testdata/fuzz/FuzzSparseDotMatchesDense.
func FuzzSparseDotMatchesDense(f *testing.F) {
	f.Add(uint64(1), uint16(256), uint8(30), false)
	f.Add(uint64(2), uint16(16), uint8(128), true)
	f.Add(uint64(3), uint16(3), uint8(255), true)
	f.Fuzz(func(t *testing.T, seed uint64, dim uint16, density uint8, negZeros bool) {
		src := rng.New(seed)
		n := 1 + int(dim)%512
		coord := func() float32 {
			if src.Intn(256) >= int(density) {
				if negZeros && src.Intn(2) == 0 {
					return float32(math.Copysign(0, -1))
				}
				return 0
			}
			if src.Intn(2) == 0 {
				return float32(src.Intn(7) - 3)
			}
			v := math.Float32frombits(uint32(src.Uint64()))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 1 // out of contract: indexes reject non-finite vectors
			}
			return v
		}
		q, row := make([]float32, n), make([]float32, n)
		for i := range row {
			q[i], row[i] = coord(), coord()
		}
		checkSparseDot(t, q, row)
	})
}

// oracleSearch is the test-only reference scorer: Similarity against
// every live vector, best first, ties by ascending ID.
func oracleSearch(m Metric, live map[int64][]float32, q []float32, k int) []Result {
	out := make([]Result, 0, len(live))
	for id, v := range live {
		s, err := Similarity(m, q, v)
		if err != nil {
			panic(err)
		}
		out = append(out, Result{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameResults requires got to equal want in score bits at every rank,
// and in IDs wherever the rank's score beats the last one (results tied
// with the k-th score may come from any member of the tie).
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: score %v (id %d), want %v (id %d)",
				label, i, got[i].Score, got[i].ID, want[i].Score, want[i].ID)
		}
		if want[i].Score != want[len(want)-1].Score && got[i].ID != want[i].ID {
			t.Fatalf("%s rank %d: id %d, want %d (score %v)", label, i, got[i].ID, want[i].ID, want[i].Score)
		}
	}
}

// TestExactScanOverNonzerosMatchesSimilarity runs every exact-scoring
// search path over hashed-text passages (mirrored rows) mixed with
// dense Gaussian rows and a zero row, through add, replace and remove
// churn, and holds each to oracleSearch in IDs and score bits. The
// quantized flat index re-ranks every row, IVF probes every list and
// HNSW's beam covers the graph, so each must be exact.
func TestExactScanOverNonzerosMatchesSimilarity(t *testing.T) {
	passages, queries := hashedCorpus(t, 400, 7)
	dense := randomVectors(60, 256, 8)
	queries = append(queries[:24], dense[50:]...) // some dense queries too
	zero := make([]float32, 256)

	type index struct {
		name   string
		metric Metric
		x      Index
	}
	var idxs []index
	for _, m := range []Metric{Cosine, Dot} {
		flat, _ := NewFlatIndex(m, 256)
		quant, _ := NewFlatIndexQ(m, 256, QuantConfig{Kind: QuantInt8, RerankK: 1000})
		idxs = append(idxs, index{"flat/" + m.String(), m, flat}, index{"flat-int8/" + m.String(), m, quant})
	}
	ivf, _ := NewIVFIndex(Cosine, 256, 8, 8)
	if err := ivf.Train(passages[:200], 5); err != nil {
		t.Fatal(err)
	}
	hnsw, _ := NewHNSWIndex(Cosine, 256, 8, 64, 1000)
	idxs = append(idxs, index{"ivf/cosine", Cosine, ivf}, index{"hnsw/cosine", Cosine, hnsw})

	live := map[int64][]float32{}
	put := func(id int64, v []float32) {
		live[id] = v
		for _, ix := range idxs {
			if err := ix.x.Add(id, v); err != nil {
				t.Fatalf("%s: Add(%d): %v", ix.name, id, err)
			}
		}
	}
	del := func(id int64) {
		delete(live, id)
		for _, ix := range idxs {
			if !ix.x.Remove(id) {
				t.Fatalf("%s: Remove(%d) = false", ix.name, id)
			}
		}
	}
	check := func(phase string) {
		t.Helper()
		for _, ix := range idxs {
			for qi, q := range queries {
				got, err := ix.x.Search(q, 10)
				if err != nil {
					t.Fatalf("%s %s: %v", ix.name, phase, err)
				}
				label := fmt.Sprintf("%s %s query %d", ix.name, phase, qi)
				sameResults(t, label, got, oracleSearch(ix.metric, live, q, 10))
			}
		}
	}

	for i, v := range passages {
		put(int64(i), v)
	}
	for i, v := range dense[:40] {
		put(int64(1000+i), v)
	}
	put(2000, zero)
	check("after add")
	if mem := idxs[0].x.(MemoryReporter).Memory(); mem.SparseRows != len(passages)+1 {
		t.Fatalf("sparse rows = %d, want every passage and the zero row (%d)", mem.SparseRows, len(passages)+1)
	}

	for i := 0; i < 40; i++ {
		put(int64(i), dense[40+i%20]) // sparse row -> dense row
		put(int64(1000+i), passages[100+i])
		put(int64(200+i), passages[300+i]) // sparse -> other sparse
	}
	put(2000, passages[0])
	check("after replace")

	for i := 0; i < 400; i += 3 {
		del(int64(i))
	}
	del(1039)
	del(2000)
	check("after remove")

	for i := 0; i < 60; i += 3 {
		put(int64(i), passages[399-i])
	}
	check("after re-add")
}

// TestNonFiniteVectorRejected: every index kind refuses NaN and ±Inf
// coordinates in a stored vector and in a query with
// ErrNonFiniteVector, and a refused Add leaves the index as it was,
// including the row it would have replaced.
func TestNonFiniteVectorRejected(t *testing.T) {
	passages, _ := hashedCorpus(t, 40, 3)
	kinds := map[string]func() Index{
		"flat": func() Index { x, _ := NewFlatIndex(Cosine, 256); return x },
		"flat-int8": func() Index {
			x, _ := NewFlatIndexQ(Cosine, 256, QuantConfig{Kind: QuantInt8})
			return x
		},
		"ivf": func() Index {
			x, _ := NewIVFIndex(Cosine, 256, 4, 2)
			if err := x.Train(passages, 5); err != nil {
				t.Fatal(err)
			}
			return x
		},
		"hnsw": func() Index { x, _ := NewHNSWIndex(Cosine, 256, 4, 16, 16); return x },
	}
	bad := map[string]float32{
		"NaN":  float32(math.NaN()),
		"+Inf": float32(math.Inf(1)),
		"-Inf": float32(math.Inf(-1)),
	}
	for kind, mk := range kinds {
		for name, b := range bad {
			t.Run(kind+"/"+name, func(t *testing.T) {
				x := mk()
				for i, v := range passages {
					if err := x.Add(int64(i), v); err != nil {
						t.Fatal(err)
					}
				}
				before, err := x.Search(passages[5], 5)
				if err != nil {
					t.Fatal(err)
				}
				v := append([]float32(nil), passages[5]...)
				v[17] = b
				if err := x.Add(100, v); !errors.Is(err, ErrNonFiniteVector) {
					t.Fatalf("Add(new id) err = %v, want ErrNonFiniteVector", err)
				}
				if err := x.Add(5, v); !errors.Is(err, ErrNonFiniteVector) {
					t.Fatalf("Add(existing id) err = %v, want ErrNonFiniteVector", err)
				}
				if x.Len() != len(passages) {
					t.Fatalf("Len = %d after refused adds, want %d", x.Len(), len(passages))
				}
				after, err := x.Search(passages[5], 5)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, "search after refused adds", after, before)
				if _, err := x.Search(v, 5); !errors.Is(err, ErrNonFiniteVector) {
					t.Fatalf("Search err = %v, want ErrNonFiniteVector", err)
				}
			})
		}
	}
}

// TestMemoryCountsSparseMirror: the footprint counts each mirror at 8
// bytes a nonzero, and the exact scan's working set reads mirrors for
// mirrored rows and dense floats for the rest.
func TestMemoryCountsSparseMirror(t *testing.T) {
	passages, _ := hashedCorpus(t, 50, 5)
	dense := randomVectors(10, 256, 6)
	x, _ := NewFlatIndex(Cosine, 256)
	var nnz int64
	for i, v := range passages {
		if err := x.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
		nnz += int64(len(nonzeros(v)))
	}
	for i, v := range dense {
		if err := x.Add(int64(100+i), v); err != nil {
			t.Fatal(err)
		}
	}
	m := x.Memory()
	n := int64(len(passages) + len(dense))
	if m.SparseRows != len(passages) || m.SparseBytes != 8*nnz {
		t.Fatalf("sparse rows/bytes = %d/%d, want %d/%d", m.SparseRows, m.SparseBytes, len(passages), 8*nnz)
	}
	if want := 8*nnz + int64(len(dense))*256*4 + 8*n; m.ScanBytes != want {
		t.Fatalf("scan bytes = %d, want %d", m.ScanBytes, want)
	}
	if want := m.FloatBytes + m.SparseBytes + m.ParamBytes; m.TotalBytes() != want {
		t.Fatalf("total bytes = %d, want %d", m.TotalBytes(), want)
	}
	x.Remove(0)
	if got := x.Memory(); got.SparseRows != len(passages)-1 || got.SparseBytes != 8*(nnz-int64(len(nonzeros(passages[0])))) {
		t.Fatalf("after remove: sparse rows/bytes = %d/%d", got.SparseRows, got.SparseBytes)
	}
}
