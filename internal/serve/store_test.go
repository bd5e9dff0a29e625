package serve

import (
	"context"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// TestShardedSearchSpanParity: on a multi-shard store, a filtered
// text search records the same trace shape as the unfiltered one —
// embed and shard_fanout spans, plus an embed-stage exemplar linking
// the latency bucket to the trace — because both run the one search
// body.
func TestShardedSearchSpanParity(t *testing.T) {
	st, err := NewShardedDefault(2, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)
	docs := make([]vecdb.Document, len(handbook))
	for i, h := range handbook {
		docs[i] = vecdb.Document{Collection: "tenant-a", Text: h}
	}
	if _, err := st.AddBulkDocs(docs); err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})

	for _, tc := range []struct {
		name   string
		search func(ctx context.Context) ([]vecdb.Hit, error)
	}{
		{"unfiltered", func(ctx context.Context) ([]vecdb.Hit, error) {
			return st.SearchContext(ctx, "annual leave days", 3)
		}},
		{"filtered", func(ctx context.Context) ([]vecdb.Hit, error) {
			return st.SearchFilteredContext(ctx, "annual leave days", 3, vecdb.Filter{Collection: "tenant-a"})
		}},
	} {
		ctx, root := tracer.StartTrace(context.Background(), "/search", "")
		id := telemetry.TraceIDFrom(ctx)
		hits, err := tc.search(ctx)
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: hits=%v err=%v", tc.name, hits, err)
		}
		root.End(nil)
		tracer.Finish(telemetry.TraceFrom(ctx), 200, false, false)

		captured := tracer.Traces(1, id)
		if len(captured) != 1 {
			t.Fatalf("%s: trace %s not captured", tc.name, id)
		}
		spans := map[string]int{}
		for _, sp := range captured[0].Spans {
			spans[sp.Name]++
		}
		if spans["embed"] != 1 || spans["shard_fanout"] != 1 {
			t.Fatalf("%s: spans = %v, want one embed and one shard_fanout", tc.name, spans)
		}
		linked := false
		for _, series := range reg.Exemplars()["stage_duration_seconds"] {
			if series.Labels != "stage=embed" {
				continue
			}
			for _, b := range series.Buckets {
				linked = linked || b.TraceID == id
			}
		}
		if !linked {
			t.Fatalf("%s: no embed exemplar links to trace %s", tc.name, id)
		}
	}
}
