package vecdb

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func randomVectors(n, dim int, seed uint64) [][]float32 {
	src := rng.New(seed)
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(src.NormFloat64())
		}
		NormalizeInPlace(v)
		out[i] = v
	}
	return out
}

// hashedCorpus embeds n handbook passages (one dataset item's context
// each, tagged with a letter code so equal contexts stay distinct
// vectors) and the items' questions with HashedEmbedder at dim 256:
// sparse rows, about 30 nonzeros of 256.
func hashedCorpus(tb testing.TB, n int, seed uint64) (passages, queries [][]float32) {
	tb.Helper()
	set, err := dataset.Generate(seed, n)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewHashedEmbedder(256)
	if err != nil {
		tb.Fatal(err)
	}
	embed := func(text string) []float32 {
		v, err := e.Embed(text)
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
	for i, it := range set.Items {
		code := []byte{byte('a' + i/26/26%26), byte('a' + i/26%26), byte('a' + i%26)}
		passages = append(passages, embed(fmt.Sprintf("Handbook section %s. %s", code, it.Context)))
		queries = append(queries, embed(it.Question))
	}
	return passages, queries
}

func BenchmarkFlatSearch(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const dim = 128
			x, err := NewFlatIndex(Cosine, dim)
			if err != nil {
				b.Fatal(err)
			}
			vecs := randomVectors(n, dim, 1)
			for i, v := range vecs {
				if err := x.Add(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomVectors(64, dim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Hashed-text passages, one ask-zipf shard's worth: every row takes
	// the exact scan over its nonzeros.
	b.Run("hashed/n=15000", func(b *testing.B) {
		passages, queries := hashedCorpus(b, 15000, 1)
		x, err := NewFlatIndex(Cosine, 256)
		if err != nil {
			b.Fatal(err)
		}
		for i, v := range passages {
			if err := x.Add(int64(i), v); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := x.Search(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFlatAdd times one insertion (copy, norm and nonzero mirror)
// of a dense Gaussian row and of a hashed-text row.
func BenchmarkFlatAdd(b *testing.B) {
	hashed, _ := hashedCorpus(b, 4096, 1)
	for _, c := range []struct {
		name string
		vecs [][]float32
	}{
		{"dense/dim=256", randomVectors(4096, 256, 1)},
		{"hashed/dim=256", hashed},
	} {
		b.Run(c.name, func(b *testing.B) {
			x, err := NewFlatIndex(Cosine, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Ids cycle, so past the first pass every Add replaces.
				if err := x.Add(int64(i%len(c.vecs)), c.vecs[i%len(c.vecs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIVFSearch(b *testing.B) {
	const dim, n = 128, 10000
	vecs := randomVectors(n, dim, 1)
	for _, nprobe := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("nprobe=%d", nprobe), func(b *testing.B) {
			x, err := NewIVFIndex(Cosine, dim, 64, nprobe)
			if err != nil {
				b.Fatal(err)
			}
			if err := x.Train(vecs[:2000], 8); err != nil {
				b.Fatal(err)
			}
			for i, v := range vecs {
				if err := x.Add(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomVectors(64, dim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashedEmbed(b *testing.B) {
	e, err := NewHashedEmbedder(256)
	if err != nil {
		b.Fatal(err)
	}
	text := "Full-time employees are entitled to 14 days of paid annual leave per year."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Embed(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTFIDFEmbed(b *testing.B) {
	e, err := NewTFIDFEmbedder(256)
	if err != nil {
		b.Fatal(err)
	}
	corpus := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		corpus = append(corpus, fmt.Sprintf("document %d about leave, uniforms and training hours", i))
	}
	if err := e.Fit(corpus); err != nil {
		b.Fatal(err)
	}
	text := "Full-time employees are entitled to 14 days of paid annual leave per year."
	if _, err := e.Embed(text); err != nil {
		b.Fatal(err) // warm projection cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Embed(text); err != nil {
			b.Fatal(err)
		}
	}
}
