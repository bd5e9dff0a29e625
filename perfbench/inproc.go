package main

// The --trace 1 run: the binary's fixed-rate phase, then the same
// stack built in-process from the packages' public constructors, once
// untraced and once with every layer wrapped (trace.go). The three
// runs name three gaps: the HTTP layer (binary − in-process p50), the
// tracing overhead (traced − untraced p50) and the ledger's residual.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rag"
	"repro/internal/serve"
	"repro/internal/slm"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// localStack is an in-process ragserver: a serve.Server over two
// in-process shards, or over a router in front of three shard nodes
// served on loopback.
type localStack struct {
	sv       *serve.Server
	rec      *recorder // nil when untraced
	qcache   *serve.CachedEmbedder
	router   *cluster.Router
	nodeRegs []*telemetry.Registry
	closers  []func()
}

func (s *localStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serveConfig mirrors the flags ragserver runs with in the benchmark.
func serveConfig() serve.Config {
	return serve.Config{
		Telemetry:   telemetry.NewRegistry(),
		Shards:      2,
		TopK:        askTopK,
		Threshold:   threshold,
		MaxBatch:    16,
		MaxWait:     2 * time.Millisecond,
		MaxInFlight: 64,
		MaxQueue:    256,
		Index:       serve.IndexConfig{Kind: "flat", Quantize: "none"},
	}
}

func flatIndex() (vecdb.Index, error) {
	return vecdb.NewFlatIndexQ(vecdb.Cosine, benchDim, vecdb.QuantConfig{})
}

// detectorFor is core.NewProposed(), with traced models and splitter
// when rec is set.
func detectorFor(rec *recorder) (*core.Detector, error) {
	if rec == nil {
		return core.NewProposed()
	}
	return core.NewDetector("Proposed", core.Config{
		Models:    []slm.Model{tracedModel{slm.NewQwen2(), rec}, tracedModel{slm.NewMiniCPM(), rec}},
		Split:     tracedSplit(rec),
		Aggregate: core.Harmonic,
	})
}

// seedDemo mirrors ragserver -seed-demo: store the demo contexts, and
// (when calibrate) calibrate on the demo triples. The models' memo is
// filled on all cores first; it holds pure functions of the prompt.
func seedDemo(sv *serve.Server, det *core.Detector, calibrate bool, workers int) error {
	demo, err := demoContexts()
	if err != nil {
		return err
	}
	for _, c := range demo {
		if _, err := sv.Store().Add(c, nil); err != nil {
			return err
		}
	}
	if !calibrate {
		return nil
	}
	cal, err := calibrationTriples()
	if err != nil {
		return err
	}
	warmModels(det.Models(), cal, workers)
	return sv.Calibrate(context.Background(), cal)
}

// newLocalStack builds the single-process stack: the exact constructor
// path of ragserver when untraced, wrapped layers when rec is set.
func newLocalStack(rec *recorder, calibrate bool, workers int) (*localStack, error) {
	cfg := serveConfig()
	det, err := detectorFor(rec)
	if err != nil {
		return nil, err
	}
	cfg.Detector = det
	st := &localStack{rec: rec}
	if rec != nil {
		hashed, err := vecdb.NewHashedEmbedder(benchDim)
		if err != nil {
			return nil, err
		}
		sharded, err := serve.NewSharded(cfg.Shards, tracedEmbedder{hashed, rec}, tracedIndexFactory(rec, flatIndex))
		if err != nil {
			return nil, err
		}
		st.qcache = serve.NewCachedEmbedder(hashed, 4096)
		cfg.Store = &tracedStore{
			inner: sharded, rec: rec, query: tracedEmbedder{st.qcache, rec},
			searchVec: func(_ context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
				return sharded.SearchVectorFiltered(vec, k, f)
			},
		}
		cfg.Generator = tracedGenerator{rag.ExtractiveGenerator{MaxSentences: 2}, rec}
	}
	sv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	st.sv = sv
	st.closers = append(st.closers, func() { sv.Close() })
	if err := seedDemo(sv, det, calibrate, workers); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// nodeLabel is a bounded route label for the node middleware.
func nodeLabel(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/shard/") {
		return r.URL.Path
	}
	return "other"
}

// newLocalCluster builds the cluster stack in-process: three durable
// one-shard stores (fsync always) behind the shard protocol handler
// and shardnode's middleware chain on loopback listeners, a router
// over HTTP backends, and a serve.Server over the router's store.
func newLocalCluster(rec *recorder, dir string) (*localStack, error) {
	cfg := serveConfig()
	st := &localStack{rec: rec}
	var shards []cluster.ShardBackends
	for i := 0; i < 3; i++ {
		reg := telemetry.NewRegistry()
		st.nodeRegs = append(st.nodeRegs, reg)
		pcfg := serve.PersistConfig{Fsync: storage.SyncAlways, CheckpointEvery: checkpointEvery, Telemetry: reg}
		ndir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		var (
			db  *serve.ShardedDB
			err error
		)
		if rec == nil {
			db, err = serve.OpenShardedWithIndex(ndir, 1, benchDim, 4096, serve.IndexConfig{}, pcfg)
		} else {
			var hashed *vecdb.HashedEmbedder
			if hashed, err = vecdb.NewHashedEmbedder(benchDim); err == nil {
				db, err = serve.OpenSharded(ndir, 1, tracedEmbedder{hashed, rec}, tracedIndexFactory(rec, flatIndex), pcfg)
			}
		}
		if err != nil {
			st.close()
			return nil, err
		}
		db.SetTelemetry(reg)
		st.closers = append(st.closers, func() { db.Close() })
		var node cluster.NodeStore = db
		if rec != nil {
			node = tracedNode{db, rec}
		}
		tracer := telemetry.NewTracer(telemetry.TracerConfig{Capacity: 256, SampleEvery: 16})
		slo := telemetry.NewSLO(telemetry.SLOConfig{
			Default: telemetry.SLOObjective{LatencyThreshold: 200 * time.Millisecond},
			Exempt:  []string{"/healthz", "/readyz"},
		}, reg)
		h := telemetry.Chain(cluster.NewNodeHandler(node, nil),
			telemetry.RequestID(),
			telemetry.Tracing(tracer, slo, nodeLabel),
			telemetry.Metrics(reg, nodeLabel),
			telemetry.RequestLog(false, nodeLabel, func() int { return 1 }),
			telemetry.Deadline(0),
			telemetry.Recover(reg),
		)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		st.closers = append(st.closers, func() { hs.Close() })
		b, err := cluster.NewHTTPBackend("http://"+ln.Addr().String(), &http.Client{Timeout: cluster.DefaultRequestTimeout})
		if err != nil {
			st.close()
			return nil, err
		}
		var backend cluster.Backend = b
		if rec != nil {
			backend = tracedBackend{b, rec}
		}
		shards = append(shards, cluster.ShardBackends{Primary: backend})
	}
	router, err := cluster.NewRouter(shards, cluster.HealthConfig{
		Interval:       time.Second,
		ResyncInterval: time.Second,
		Telemetry:      cfg.Telemetry,
		Resilience: cluster.ResilienceConfig{
			BreakerThreshold: 5, BreakerCooldown: 2 * time.Second,
			RetryReads: 1, HedgeAfter: 20 * time.Millisecond,
		},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = router
	rs, err := serve.NewRemoteStore(router, benchDim, 4096)
	if err != nil {
		router.Close()
		st.close()
		return nil, err
	}
	cfg.Store = rs
	if rec != nil {
		hashed, err := vecdb.NewHashedEmbedder(benchDim)
		if err != nil {
			rs.Close()
			st.close()
			return nil, err
		}
		st.qcache = serve.NewCachedEmbedder(hashed, 4096)
		cfg.Store = &tracedStore{inner: rs, rec: rec, query: tracedEmbedder{st.qcache, rec}, searchVec: router.SearchVector}
	}
	sv, err := serve.New(cfg)
	if err != nil {
		rs.Close()
		st.close()
		return nil, err
	}
	st.sv = sv
	st.closers = append(st.closers, func() { sv.Close() })
	if err := seedDemo(sv, nil, false, 1); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// ingest streams body through IngestStreamIn as one "ingest" request.
func (s *localStack) ingest(id int64, body io.Reader) (streamFrame, time.Duration, error) {
	ctx := withReq(context.Background(), id)
	t0 := time.Now()
	var start int64 = -1
	if s.rec != nil {
		start = s.rec.begin()
	}
	st, err := s.sv.IngestStreamIn(ctx, "", body, nil)
	if s.rec != nil {
		s.rec.end("ingest", id, start)
	}
	wall := time.Since(t0)
	return streamFrame{Accepted: st.Accepted, Indexed: st.Indexed, Failed: st.Failed, Chunks: st.Chunks, Throttled: st.Throttled, Done: true}, wall, err
}

// pacedReader yields docs as NDJSON at rate docs/s, all n of them.
func pacedReader(docs []string, rate float64) io.Reader {
	pr, pw := io.Pipe()
	go func() {
		start := time.Now()
		for i, d := range docs {
			if wait := time.Duration(float64(i)/rate*float64(time.Second)) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := pw.Write(mustJSON(map[string]string{"text": d})); err != nil {
				return
			}
			pw.Write([]byte("\n"))
		}
		pw.Close()
	}()
	return pr
}

// Request IDs: the in-process streams use 1 and 2 (or -1 when the
// stream is setup, not measured); timed requests count up from here.
const firstReqID = 1000

// inprocCall issues request j against a stack; it returns a digest of
// the output for the traced-vs-untraced comparison.
type inprocCall func(st *localStack, ctx context.Context, j int) (string, error)

// runInproc runs the fixed-rate phase against st, recording a root
// "serve" span per request when traced. keys names the attribution
// keys request j registers. It returns the phase, every output digest,
// and the request IDs it issued.
func runInproc(st *localStack, rate float64, dur time.Duration, conns int, call inprocCall, keys func(j int) []string) (phase, []string, []int64, error) {
	n := int(math.Round(rate * dur.Seconds()))
	outs := make([]string, n)
	ids := make([]int64, n)
	var cursor atomic.Int64
	var firstErr atomic.Value
	p := runOpenLoop("inproc", conns, rate, dur, func(conn, i int) outcome {
		j := int(cursor.Add(1) - 1)
		id := firstReqID + int64(j)
		ids[j] = id
		ctx := withReq(context.Background(), id)
		var start int64 = -1
		if st.rec != nil {
			st.rec.register(id, keys(j)...)
			start = st.rec.begin()
		}
		out, err := call(st, ctx, j)
		if st.rec != nil {
			st.rec.end("serve", id, start)
			st.rec.release(id)
		}
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
			return outcomeFailed
		}
		outs[j] = out
		return outcomeOK
	})
	if err, _ := firstErr.Load().(error); err != nil {
		return p, outs, ids, err
	}
	return p, outs, ids, nil
}

func verdictDigest(v core.Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x", math.Float64bits(v.Score))
	for _, s := range v.Sentences {
		fmt.Fprintf(&b, "|%s:%x", s.Sentence, math.Float64bits(s.Combined))
	}
	return b.String()
}

// hitsDigest renders hits up to the order of equal scores and up to
// which members of a tie at the last rank made the cut: streamed
// corpora get their IDs in chunking order, so two stacks may break
// such ties differently while both are right.
func hitsDigest(hits []vecdb.Hit) string {
	var b strings.Builder
	var texts []string
	for i, h := range hits {
		fmt.Fprintf(&b, "%x|", math.Float64bits(h.Score))
		if h.Score != hits[len(hits)-1].Score {
			texts = append(texts, h.Text)
		}
		if i == len(hits)-1 || hits[i+1].Score != h.Score {
			sort.Strings(texts)
			b.WriteString(strings.Join(texts, "|"))
			texts = texts[:0]
		}
	}
	return b.String()
}

// traceSpec describes one workload's --trace 1 run.
type traceSpec struct {
	rate  float64
	fixed time.Duration // fixed-phase length
	conns int
	// binary boots the binary stack, runs the fixed-rate phase over
	// HTTP and returns it.
	binary func() (phase, error)
	// build makes and loads an in-process stack (rec nil: untraced).
	build func(rec *recorder) (*localStack, error)
	call  inprocCall
	keys  func(j int) []string
	// during runs beside the timed phase (the cluster's paced writer)
	// and after it; probe digests the post-run state for the
	// traced-vs-untraced comparison. Either may be nil.
	during func(st *localStack) func() error
	probe  func(st *localStack) (string, error)
}

// layerReport is what the traced run measured, before formatting.
type layerReport struct {
	binary, untraced, traced phase
	spans                    []span
	ids                      []int64
	ambiguous                float64
	before, after            serve.Snapshot
	embedHits, embedMisses   uint64
	routerBefore, routerAft  cluster.RouterStats
	ingest                   *ingestReport
	nodeRegs                 []*telemetry.Registry
	vectors                  int64 // vectors the traced index searches scanned
}

type ingestReport struct {
	id    int64
	frame streamFrame
}

func (r *runCtx) traceRun(spec traceSpec) (*layerReport, *localStack, error) {
	rep := &layerReport{}
	var err error
	if rep.binary, err = spec.binary(); err != nil {
		return nil, nil, err
	}
	r.account(rep.binary)

	runOnce := func(rec *recorder) (*localStack, phase, []string, string, []int64, error) {
		st, err := spec.build(rec)
		if err != nil {
			return nil, phase{}, nil, "", nil, err
		}
		var finish func() error
		if spec.during != nil {
			finish = spec.during(st)
		}
		if rec != nil {
			rep.before = st.sv.Stats()
			if st.qcache != nil {
				rep.embedHits, rep.embedMisses = st.qcache.Counters()
			}
			if st.router != nil {
				rep.routerBefore = st.router.Stats()
			}
			rec.on.Store(true)
		}
		p, outs, ids, err := runInproc(st, spec.rate, spec.fixed, spec.conns, spec.call, spec.keys)
		if rec != nil {
			rec.on.Store(false)
			rep.after = st.sv.Stats()
			if st.qcache != nil {
				h, m := st.qcache.Counters()
				rep.embedHits, rep.embedMisses = h-rep.embedHits, m-rep.embedMisses
			}
			if st.router != nil {
				rep.routerAft = st.router.Stats()
			}
		}
		if finish != nil {
			if ferr := finish(); ferr != nil && err == nil {
				err = ferr
			}
		}
		var probe string
		if err == nil && spec.probe != nil {
			probe, err = spec.probe(st)
		}
		return st, p, outs, probe, ids, err
	}

	u, up, uouts, uprobe, _, err := runOnce(nil)
	if err != nil {
		return nil, nil, err
	}
	u.close()
	rep.untraced = up
	r.account(up)
	rec := newRecorder()
	t, tp, touts, tprobe, ids, err := runOnce(rec)
	if err != nil {
		if t != nil {
			t.close()
		}
		return nil, nil, err
	}
	rep.traced = tp
	r.account(tp)
	rep.ids = ids
	rep.nodeRegs = t.nodeRegs
	diff := 0
	for i := range uouts {
		if i >= len(touts) || uouts[i] != touts[i] {
			diff++
		}
	}
	if diff > 0 || len(uouts) != len(touts) {
		r.fail("traced and untraced in-process runs differ on %d of %d outputs", diff, len(uouts))
	}
	if uprobe != tprobe {
		r.fail("traced and untraced in-process runs differ after the run")
	}
	rec.mu.Lock()
	rep.spans = append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	rep.ambiguous = attribute(rep.spans)
	return rep, t, nil
}

// perLayer is the ordered list of per-layer metrics and their units;
// every traced run reports all of them (0 where a layer is not on the
// workload's path).
var perLayer = []struct{ name, unit string }{
	{"ledger.e2e_ms", "ms"}, {"ledger.requests", "count"}, {"residual_ms", "ms"},
	{"http.self_ms", "ms"}, {"trace.overhead_ms", "ms"}, {"trace.ambiguous_share", "ratio"},
	{"binary.p50_ms", "ms"}, {"inproc.p50_ms", "ms"}, {"inproc.traced_p50_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"serve.count", "1/req"}, {"serve.busy_ms", "ms"}, {"serve.self_ms", "ms"},
	{"rag.count", "1/req"}, {"rag.busy_ms", "ms"}, {"rag.self_ms", "ms"},
	{"core.count", "1/req"}, {"core.busy_ms", "ms"}, {"core.self_ms", "ms"},
	{"slm.count", "1/req"}, {"slm.busy_ms", "ms"}, {"slm.self_ms", "ms"},
	{"vecdb.count", "1/req"}, {"vecdb.busy_ms", "ms"}, {"vecdb.self_ms", "ms"},
	{"cluster.count", "1/req"}, {"cluster.busy_ms", "ms"}, {"cluster.self_ms", "ms"},
	{"node.count", "1/req"}, {"node.busy_ms", "ms"}, {"node.self_ms", "ms"},
	{"serve.verify_wait_ms", "ms"}, {"serve.fanout_merge_ms", "ms"},
	{"serve.verdict_cache.hit_ratio", "ratio"}, {"serve.embed_cache.hit_ratio", "ratio"},
	{"serve.batch.items_per_batch", "count"}, {"serve.shed", "count"},
	{"slm.calls_per_req", "1/req"}, {"slm.busy_ms_per_req", "ms"}, {"slm.call_us", "us"},
	{"core.verify_exec_ms", "ms"}, {"core.split_us", "us"},
	{"rag.retrieve_ms", "ms"}, {"rag.generate_us", "us"},
	{"vecdb.embed_us", "us"}, {"vecdb.embed_calls_per_req", "1/req"},
	{"vecdb.search_ms", "ms"}, {"vecdb.vectors_per_query", "count"}, {"vecdb.add_us", "us"},
	{"cluster.rpc_search_ms", "ms"}, {"cluster.rpc_apply_ms", "ms"}, {"cluster.rpc_overhead_ms", "ms"},
	{"cluster.retries", "count"}, {"cluster.hedges", "count"}, {"cluster.failovers", "count"},
	{"ingest.self_ms_per_batch", "ms"}, {"ingest.batch_docs", "count"}, {"ingest.throttle_events", "count"},
	{"storage.wal_append_ms", "ms"}, {"storage.wal_fsync_ms", "ms"},
	{"input.repeat_prompt_share", "ratio"}, {"input.distinct_questions", "count"},
}

// ledger turns a traced run into the per-layer metrics and prints the
// layer table.
func (r *runCtx) ledger(rep *layerReport) {
	m := map[string]float64{}
	timed := map[int64]bool{}
	for _, id := range rep.ids {
		timed[id] = true
	}
	byReq := reqSpans(rep.spans)
	var (
		nreq                     float64
		selfSum, busySum, counts = map[string]float64{}, map[string]float64{}, map[string]float64{}
		rootSum, verifyWait      float64
		verifyExec, fanoutMerge  float64
		retrieveSum, retrieveN   float64
		rpcOverhead              []float64
		all                      []span
	)
	for id := range timed {
		spans := byReq[id]
		var root *span
		for i := range spans {
			if spans[i].layer == "serve" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		nreq++
		all = append(all, spans...)
		rootSum += float64(root.end - root.start)
		for l, ns := range partition(*root, spans) {
			selfSum[layerGroup[l]] += float64(ns)
		}
		for _, g := range ledgerRows {
			var ivs []interval
			for _, s := range spans {
				if layerGroup[s.layer] == g {
					ivs = append(ivs, s.iv())
					counts[g]++
				}
			}
			busySum[g] += float64(unionLength(clip(root.iv(), ivs)))
		}
		verifyWait += float64(selfTime(root.iv(), ivsOf(spans, "rag.retrieve", "rag.generate", "slm")))
		verifyExec += float64(unionLength(ivsOf(spans, "slm")))
		for _, s := range spans {
			switch s.layer {
			case "rag.retrieve":
				retrieveN++
				retrieveSum += float64(s.end - s.start)
				var inner []interval
				for _, c := range spans {
					if (c.layer == "vecdb.embed" || c.layer == "vecdb.search" || c.layer == "cluster.rpc_search") && c.start >= s.start && c.start <= s.end {
						inner = append(inner, c.iv())
					}
				}
				fanoutMerge += float64(selfTime(s.iv(), inner))
			case "cluster.rpc_search":
				var inner []interval
				for _, c := range spans {
					if c.layer == "node.search" && c.start >= s.start && c.start <= s.end {
						inner = append(inner, c.iv())
					}
				}
				rpcOverhead = append(rpcOverhead, float64(selfTime(s.iv(), inner))/msNS)
			}
		}
	}
	if nreq == 0 {
		r.fail("traced run recorded no requests")
		return
	}
	e2e := mean(finite(rep.traced.LatMs))
	m["ledger.e2e_ms"] = e2e
	m["ledger.requests"] = nreq
	sumSelf := 0.0
	for _, g := range ledgerRows {
		m[g+".count"] = counts[g] / nreq
		m[g+".busy_ms"] = busySum[g] / nreq / msNS
		m[g+".self_ms"] = selfSum[g] / nreq / msNS
		sumSelf += m[g+".self_ms"]
	}
	m["residual_ms"] = e2e - sumSelf
	m["binary.p50_ms"] = rep.binary.p50()
	m["inproc.p50_ms"] = rep.untraced.p50()
	m["inproc.traced_p50_ms"] = rep.traced.p50()
	m["http.self_ms"] = rep.binary.p50() - rep.untraced.p50()
	m["trace.overhead_ms"] = rep.traced.p50() - rep.untraced.p50()
	m["trace.ambiguous_share"] = rep.ambiguous
	m["gen.late_ms"] = median(rep.binary.LateMs)
	m["serve.verify_wait_ms"] = verifyWait / nreq / msNS
	m["core.verify_exec_ms"] = verifyExec / nreq / msNS
	if retrieveN > 0 {
		m["rag.retrieve_ms"] = retrieveSum / retrieveN / msNS
		m["serve.fanout_merge_ms"] = fanoutMerge / retrieveN / msNS
		m["vecdb.vectors_per_query"] = float64(rep.vectors) / retrieveN
	}
	slmCalls := durs(all, "slm", msNS)
	m["slm.calls_per_req"] = float64(len(slmCalls)) / nreq
	m["slm.busy_ms_per_req"] = sum(slmCalls) / nreq
	m["slm.call_us"] = median(durs(all, "slm", usNS))
	m["core.split_us"] = median(durs(all, "core.split", usNS))
	m["rag.generate_us"] = median(durs(all, "rag.generate", usNS))
	m["vecdb.embed_us"] = median(durs(all, "vecdb.embed", usNS))
	m["vecdb.embed_calls_per_req"] = float64(len(durs(all, "vecdb.embed", 1))) / nreq
	m["vecdb.search_ms"] = mean(durs(all, "vecdb.search", msNS))
	m["cluster.rpc_search_ms"] = mean(durs(all, "cluster.rpc_search", msNS))
	m["cluster.rpc_overhead_ms"] = mean(rpcOverhead)
	vd := rep.after.VerdictCache
	vb := rep.before.VerdictCache
	m["serve.verdict_cache.hit_ratio"] = hitShare(vd, vb)
	if rep.embedHits+rep.embedMisses > 0 {
		m["serve.embed_cache.hit_ratio"] = float64(rep.embedHits) / float64(rep.embedHits+rep.embedMisses)
	}
	if b := rep.after.Batch.Batches - rep.before.Batch.Batches; b > 0 {
		m["serve.batch.items_per_batch"] = float64(rep.after.Batch.Items-rep.before.Batch.Items) / float64(b)
	}
	m["serve.shed"] = float64(rep.after.Admission.Shed - rep.before.Admission.Shed)
	m["cluster.retries"] = float64(rep.routerAft.ReadRetries - rep.routerBefore.ReadRetries)
	m["cluster.hedges"] = float64(rep.routerAft.Hedges - rep.routerBefore.Hedges)
	m["cluster.failovers"] = float64(rep.routerAft.Failovers - rep.routerBefore.Failovers)

	if ing := rep.ingest; ing != nil {
		spans := byReq[ing.id]
		var root *span
		for i := range spans {
			if spans[i].layer == "ingest" {
				root = &spans[i]
			}
		}
		writes := ivsOf(spans, "serve.store_write")
		if root != nil && len(writes) > 0 {
			m["ingest.self_ms_per_batch"] = float64(selfTime(root.iv(), writes)) / float64(len(writes)) / msNS
			m["ingest.batch_docs"] = float64(ing.frame.Chunks) / float64(len(writes))
		}
		m["ingest.throttle_events"] = float64(ing.frame.Throttled)
		m["cluster.rpc_apply_ms"] = mean(durs(spans, "cluster.rpc_apply", msNS))
		m["vecdb.add_us"] = median(durs(spans, "vecdb.add", usNS))
	}
	if len(rep.nodeRegs) > 0 {
		m["storage.wal_append_ms"] = stageMeanMs(rep.nodeRegs, "wal_append")
		m["storage.wal_fsync_ms"] = stageMeanMs(rep.nodeRegs, "wal_fsync")
	}
	for k, v := range r.metrics {
		m[k] = v.Value // workload-specific input guards set earlier
	}
	r.metrics = map[string]metric{}
	for _, pl := range perLayer {
		v := m[pl.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.set(pl.name, v, pl.unit)
	}
	r.printLedger()
}

func finite(v []float64) []float64 {
	var out []float64
	for _, x := range v {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// stageMeanMs reads a stage's mean latency from the nodes' own
// stage_duration_seconds histograms (program-reported: the WAL has no
// public call boundary a wrapper could time).
func stageMeanMs(regs []*telemetry.Registry, stage string) float64 {
	var s float64
	var n uint64
	for _, reg := range regs {
		if hs, ok := reg.HistogramSnapshots("stage_duration_seconds")["stage="+stage]; ok {
			s += hs.Sum
			n += hs.Count
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n) * 1e3
}

// printLedger writes the layer table to stderr.
func (r *runCtx) printLedger() {
	v := func(k string) float64 { return r.metrics[k].Value }
	r.logf("\n  per-layer ledger (%s, in-process traced run, %d requests; times are per-request means)", r.workload, int(v("ledger.requests")))
	r.logf("  %-10s %10s %10s %10s", "layer", "spans/req", "busy_ms", "self_ms")
	total := 0.0
	for _, g := range ledgerRows {
		r.logf("  %-10s %10.2f %10.3f %10.3f", g, v(g+".count"), v(g+".busy_ms"), v(g+".self_ms"))
		total += v(g + ".self_ms")
	}
	r.logf("  %-10s %10s %10s %10.3f", "residual", "", "", v("residual_ms"))
	r.logf("  %-10s %10s %10s %10.3f  (= in-process end-to-end mean, from due time)", "total", "", "", total+v("residual_ms"))
	r.logf("  http row: binary p50 %.3f ms - in-process p50 %.3f ms = %.3f ms", v("binary.p50_ms"), v("inproc.p50_ms"), v("http.self_ms"))
	r.logf("  tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms = %.3f ms (ambiguous span share %.3f)",
		v("inproc.traced_p50_ms"), v("inproc.p50_ms"), v("trace.overhead_ms"), v("trace.ambiguous_share"))
	names := make([]string, 0, len(perLayer))
	for _, pl := range perLayer {
		if strings.Contains(pl.name, ".") && !strings.HasSuffix(pl.name, ".count") && !strings.HasSuffix(pl.name, ".busy_ms") && !strings.HasSuffix(pl.name, ".self_ms") {
			names = append(names, pl.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		label := ""
		if strings.HasPrefix(n, "storage.") {
			label = "  (program-reported: node stage histograms)"
		}
		r.logf("  %-32s %12.4f %s%s", n, v(n), r.metrics[n].Unit, label)
	}
}

// ---- per-workload traced runs ----

func traceVerifyCold(r *runCtx) error {
	cal, err := calibrationTriples()
	if err != nil {
		return err
	}
	triples, err := verifyTriples(r.seed, cal)
	if err != nil {
		return err
	}
	kb, err := makeCorpus(r.seed, verifyKBDocs, probeQueries)
	if err != nil {
		return err
	}
	body := ndjson(kb.Docs)
	n := int(math.Round(verifyRate * r.verifyFixedDur().Seconds()))
	sent := make([]core.Triple, n)
	for i := range sent {
		sent[i] = triples[i].Triple
	}
	r.set("input.repeat_prompt_share", promptRepeatShare(sent, cal), "ratio")
	spec := traceSpec{
		rate: verifyRate, fixed: r.verifyFixedDur(), conns: r.conns,
		binary: func() (phase, error) {
			srv, _, _, err := r.bootServer("ragserver", body, len(kb.Docs))
			if err != nil {
				return phase{}, err
			}
			defer srv.stop()
			c := newClient(r.conns)
			var cursor atomic.Int64
			return runOpenLoop("binary", r.conns, verifyRate, r.verifyFixedDur(), func(conn, i int) outcome {
				t := triples[cursor.Add(1)-1]
				st, _, err := postRaw(c, srv.base+"/verify", mustJSON(map[string]string{
					"question": t.Question, "context": t.Context, "response": t.Response}))
				return classify(st, err)
			}), nil
		},
		build: func(rec *recorder) (*localStack, error) {
			st, err := newLocalStack(rec, true, r.conns)
			if err != nil {
				return nil, err
			}
			if _, _, err := st.ingest(-1, bytes.NewReader(body)); err != nil {
				st.close()
				return nil, err
			}
			return st, nil
		},
		call: func(st *localStack, ctx context.Context, j int) (string, error) {
			t := triples[j]
			v, err := st.sv.Verify(ctx, t.Question, t.Context, t.Response)
			return verdictDigest(v), err
		},
		keys: func(j int) []string {
			t := triples[j]
			return []string{pairKey(t.Question, t.Context), responseKey(t.Response)}
		},
	}
	rep, st, err := r.traceRun(spec)
	if err != nil {
		return err
	}
	defer st.close()
	rep.vectors = st.rec.vectors.Load()
	r.ledger(rep)
	return nil
}

func traceAskZipf(r *runCtx) error {
	corp, err := makeCorpus(r.seed, askDocs, askPool)
	if err != nil {
		return err
	}
	body := ndjson(corp.Docs)
	n := int(math.Round(askRate * r.fixedDur().Seconds()))
	all := zipfDraws(r.seed, len(corp.Questions), askWarmup+n, zipfS)
	warm, draws := all[:askWarmup], all[askWarmup:]
	distinct := map[int]bool{}
	for _, d := range draws {
		distinct[d] = true
	}
	r.set("input.distinct_questions", float64(len(distinct)), "count")
	spec := traceSpec{
		rate: askRate, fixed: r.fixedDur(), conns: r.conns,
		binary: func() (phase, error) {
			srv, _, _, err := r.bootServer("ragserver", body, len(corp.Docs))
			if err != nil {
				return phase{}, err
			}
			defer srv.stop()
			c := newClient(r.conns)
			ask := func(q string) outcome {
				st, _, err := postRaw(c, srv.base+"/ask", mustJSON(map[string]string{"question": q}))
				return classify(st, err)
			}
			var cursor atomic.Int64
			r.account(runOpenLoop("warmup", r.conns, warmupRate, warmupDur, func(conn, i int) outcome {
				return ask(corp.Questions[warm[cursor.Add(1)-1]])
			}))
			cursor.Store(0)
			return runOpenLoop("binary", r.conns, askRate, r.fixedDur(), func(conn, i int) outcome {
				return ask(corp.Questions[draws[cursor.Add(1)-1]])
			}), nil
		},
		build: func(rec *recorder) (*localStack, error) {
			st, err := newLocalStack(rec, true, r.conns)
			if err != nil {
				return nil, err
			}
			// Bulk ingest allocates IDs in input order, so both
			// in-process stacks break equal-score ties alike and their
			// answers can be compared exactly; streamed IDs follow the
			// concurrent chunkers.
			if _, err := st.sv.IngestBulk(context.Background(), corp.Docs); err != nil {
				st.close()
				return nil, err
			}
			var werr atomic.Value
			parallelFor(len(warm), r.conns, func(i int) {
				if _, err := st.sv.AskIn(context.Background(), "", corp.Questions[warm[i]]); err != nil {
					werr.CompareAndSwap(nil, err)
				}
			})
			if err, _ := werr.Load().(error); err != nil {
				st.close()
				return nil, err
			}
			return st, nil
		},
		call: func(st *localStack, ctx context.Context, j int) (string, error) {
			a, err := st.sv.AskIn(ctx, "", corp.Questions[draws[j]])
			return a.Context + "\x1f" + a.Response + "\x1f" + verdictDigest(a.Verdict), err
		},
		keys: func(j int) []string { return []string{questionKey(corp.Questions[draws[j]])} },
	}
	rep, st, err := r.traceRun(spec)
	if err != nil {
		return err
	}
	defer st.close()
	rep.vectors = st.rec.vectors.Load()
	r.ledger(rep)
	return nil
}

func traceCluster(r *runCtx) error {
	corp, err := makeCorpus(r.seed, clusterDocs+clusterPaced, askPool)
	if err != nil {
		return err
	}
	phaseA := corp.Docs[:clusterDocs]
	bodyA := ndjson(phaseA)
	paced := corp.Docs[clusterDocs : clusterDocs+int(pacedDocsRate*r.fixedDur().Seconds())]
	n := int(math.Round(searchRate * r.fixedDur().Seconds()))
	draws := uniformDraws(r.seed, len(corp.Questions), n)
	var ingest *ingestReport
	nextDir := 0
	spec := traceSpec{
		rate: searchRate, fixed: r.fixedDur(), conns: 1,
		binary: func() (phase, error) {
			stack, _, err := r.bootCluster(0)
			defer stack.stop()
			if err != nil {
				return phase{}, err
			}
			base := stack.router.base
			streamC, searchC := newClient(1), newClient(1)
			if _, _, err := postStream(streamC, base+"/ingest/stream", bytes.NewReader(bodyA)); err != nil {
				return phase{}, err
			}
			done := make(chan error, 1)
			go func() {
				_, _, err := postStream(streamC, base+"/ingest/stream", pacedReader(paced, pacedDocsRate))
				done <- err
			}()
			var cursor atomic.Int64
			p := runOpenLoop("binary", 1, searchRate, r.fixedDur(), func(conn, i int) outcome {
				q := corp.Questions[draws[cursor.Add(1)-1]]
				st, _, err := postRaw(searchC, base+"/search", mustJSON(map[string]interface{}{"query": q, "k": probeK}))
				return classify(st, err)
			})
			return p, <-done
		},
		build: func(rec *recorder) (*localStack, error) {
			dir := filepath.Join(r.dir, fmt.Sprintf("inproc-%d", nextDir))
			nextDir++
			st, err := newLocalCluster(rec, dir)
			if err != nil {
				return nil, err
			}
			st.closers = append([]func(){func() { os.RemoveAll(dir) }}, st.closers...)
			const ingestID = 1
			if rec != nil {
				rec.on.Store(true)
			}
			f, _, err := st.ingest(ingestID, bytes.NewReader(bodyA))
			if rec != nil {
				rec.on.Store(false)
				ingest = &ingestReport{id: ingestID, frame: f}
			}
			if err != nil {
				st.close()
				return nil, err
			}
			return st, nil
		},
		during: func(st *localStack) func() error {
			done := make(chan error, 1)
			go func() {
				_, _, err := st.ingest(2, pacedReader(paced, pacedDocsRate))
				done <- err
			}()
			return func() error { return <-done }
		},
		call: func(st *localStack, ctx context.Context, j int) (string, error) {
			hits, err := st.sv.SearchFiltered(ctx, corp.Questions[draws[j]], probeK, vecdb.Filter{})
			return fmt.Sprint(len(hits)), err
		},
		keys: func(j int) []string { return []string{questionKey(corp.Questions[draws[j]])} },
		probe: func(st *localStack) (string, error) {
			var b strings.Builder
			for _, q := range corp.Questions[:probeQueries] {
				hits, err := st.sv.SearchFiltered(context.Background(), q, probeK, vecdb.Filter{})
				if err != nil {
					return "", err
				}
				b.WriteString(hitsDigest(hits))
			}
			return b.String(), nil
		},
	}
	rep, st, err := r.traceRun(spec)
	if err != nil {
		return err
	}
	defer st.close()
	rep.ingest = ingest
	rep.vectors = st.rec.vectors.Load()
	r.ledger(rep)
	return nil
}
