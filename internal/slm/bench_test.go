package slm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/tokenizer"
)

func BenchmarkTransformerStep(b *testing.B) {
	tr, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), 1)
	if err != nil {
		b.Fatal(err)
	}
	prompt := tr.Tokenizer().Encode("Is the answer supported by the context? Reply YES or NO:")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.NewSession()
		if _, err := s.Feed(prompt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prompt)), "tokens/op")
}

// BenchmarkYesProbabilityColdCache times one signature-cache miss: the
// model is built once, outside the timed loop, and every iteration asks
// about a claim it has not seen.
func BenchmarkYesProbabilityColdCache(b *testing.B) {
	ctx := context.Background()
	m := NewQwen2()
	r := VerifyRequest{
		Question: "What are the working hours?",
		Context:  "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Claim = fmt.Sprintf("The working hours are 9 AM to 5 PM, run %d.", i)
		if _, err := m.YesProbability(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYesProbabilityWarmCache(b *testing.B) {
	ctx := context.Background()
	m := NewQwen2()
	r := VerifyRequest{
		Question: "What are the working hours?",
		Context:  "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
		Claim:    "The working hours are 9 AM to 5 PM.",
	}
	if _, err := m.YesProbability(ctx, r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.YesProbability(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiddenSignature runs the Qwen2 network's signature over the
// default dataset's verification prompts, the work behind every cold
// YesProbability call.
func BenchmarkHiddenSignature(b *testing.B) {
	net := NewQwen2().net
	prompts := datasetPrompts(b, net.Tokenizer())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.HiddenSignature(prompts[i%len(prompts)]); err != nil {
			b.Fatal(err)
		}
	}
}
