package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vecdb"
)

// Offered rates and sizes. The fixed rates sit well below each path's
// saturation on a 2-vCPU host (verify ~90/s, warm ask ~125/s, cluster
// search ~65/s on one connection), so p50 measures service time more
// than queueing; each ladder starts below the knee and climbs by
// ladderFactor per rung.
const (
	verifyRate     = 20.0 // /verify req/s, low: two verifications contend for both cores
	verifyLadder   = 75.0 // first ladder rung
	askRate        = 40.0 // /ask req/s
	askLadder      = 100.0
	searchRate     = 20.0 // /search req/s (one connection)
	searchLadder   = 40.0
	pacedDocsRate  = 150.0 // docs/s written during cluster phase B
	ladderFactor   = 1.25
	maxRungs       = 4
	askPool        = 300   // distinct /ask questions
	zipfS          = 1.3   // question popularity exponent
	askDocs        = 15000 // ~36k passages
	askWarmup      = 300   // untimed /ask requests that warm the caches
	warmupRate     = 1000  // offered fast enough that the warm-up runs closed-loop
	warmupDur      = askWarmup * time.Second / warmupRate
	verifyKBDocs   = 9000  // verify-cold's post-run knowledge-base stream, ~21k passages
	clusterDocs    = 15000 // cluster phase A, ~30k passages
	ingestParts    = 3     // streams a corpus is split into; ingest_docs_per_s is their median
	clusterPaced   = 6000  // cap on cluster phase B paced documents
	probeQueries   = 30    // post-run top-k probes
	probeK         = 10
	askTopK        = 3  // ragserver -topk default
	f1ProbeTriples = 96 // labelled /verify probe on ask-zipf and cluster: 2 per (topic, label)
)

// ---- HTTP helpers ----

func postRaw(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// ndjson renders documents as /ingest/stream lines.
func ndjson(docs []string) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, d := range docs {
		enc.Encode(map[string]string{"text": d})
	}
	return b.Bytes()
}

// streamFrame is the final /ingest/stream frame.
type streamFrame struct {
	Accepted  uint64 `json:"accepted"`
	Indexed   uint64 `json:"indexed"`
	Failed    uint64 `json:"failed"`
	Chunks    uint64 `json:"chunks"`
	Throttled uint64 `json:"throttled"`
	Done      bool   `json:"done"`
	Error     string `json:"error"`
}

// postStream sends body to /ingest/stream and reads frames until the
// final one, returning it and the wall time from send to final frame.
func postStream(c *http.Client, url string, body io.Reader) (streamFrame, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/x-ndjson", body)
	if err != nil {
		return streamFrame{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return streamFrame{}, 0, fmt.Errorf("ingest stream: status %d: %s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last streamFrame
	for sc.Scan() {
		var f streamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return streamFrame{}, 0, err
		}
		if f.Done {
			last = f
			break
		}
	}
	wall := time.Since(start)
	if !last.Done {
		return streamFrame{}, 0, fmt.Errorf("ingest stream ended without a final frame: %v", sc.Err())
	}
	if last.Error != "" {
		return last, wall, fmt.Errorf("ingest stream: %s", last.Error)
	}
	return last, wall, nil
}

// pacedStream writes docs at rate docs/s until stop closes or docs run
// out, then finishes the stream. It reports the final frame and how
// many documents it wrote (docs[:n]).
func pacedStream(c *http.Client, url string, docs []string, rate float64, stop <-chan struct{}) (streamFrame, int, error) {
	pr, pw := io.Pipe()
	wrote := make(chan int, 1)
	go func() {
		written := 0
		defer func() { wrote <- written }()
		bw := bufio.NewWriter(pw)
		enc := json.NewEncoder(bw)
		start := time.Now()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for written < len(docs) {
			select {
			case <-stop:
				pw.CloseWithError(bw.Flush())
				return
			case <-tick.C:
			}
			due := int(time.Since(start).Seconds() * rate)
			for written < due && written < len(docs) {
				enc.Encode(map[string]string{"text": docs[written]})
				written++
			}
			if err := bw.Flush(); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	f, _, err := postStream(c, url, pr)
	pr.Close() // unblocks the writer if the request ended early
	return f, <-wrote, err
}

// statsOf fetches a ragserver's /stats snapshot.
func statsOf(c *http.Client, base string) (serve.Snapshot, error) {
	var s serve.Snapshot
	err := getJSON(c, base+"/stats", &s)
	return s, err
}

// ---- accounting ----

// account adds a phase's requests to the run totals and reports it.
// Every workload runs within capacity limits the server is configured
// for, so a failed or shed request is a failed check, not just a miss.
func (r *runCtx) account(p phase) {
	r.attempted += p.Sent
	r.failed += p.Failed + p.Shed
	if p.Failed+p.Shed > 0 {
		r.fail("%s phase at %.1f/s: %d failed and %d shed of %d requests", p.Name, p.Rate, p.Failed, p.Shed, p.Sent)
	}
	q, t := p.tail()
	r.logf("  %-8s %6.1f/s %5.1fs sent=%d ok=%d failed=%d shed=%d p50=%.2fms p%.1f=%.2fms backlog=%d late(p50/max)=%.3f/%.3fms",
		p.Name, p.Rate, p.Duration.Seconds(), p.Sent, p.OK, p.Failed, p.Shed,
		p.p50(), 100*q, t, p.Backlog, median(p.LateMs), maxOf(p.LateMs))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// reportSetup records setup_s as the median of the repeated setups.
func (r *runCtx) reportSetup(times []float64) {
	r.logf("  setup_s runs: %v", times)
	r.set("setup_s", median(times), "s")
}

// timedRun runs the fixed-rate phase and then the goodput ladder from
// just above it, recording p50_ms and goodput_rps. It returns the fixed
// phase; send draws inputs in order, so the fixed phase used the first
// Sent of them.
func (r *runCtx) timedRun(rate, ladderStart float64, conns int, fixedDur time.Duration, send sendFunc) phase {
	r.mark("set up")
	fixed := runOpenLoop("fixed", conns, rate, fixedDur, send)
	r.account(fixed)
	floor := rungOf(fixed, latencyLimitMs)
	rungs, phases := runLadder(conns, floor, ladderStart, ladderFactor, maxRungs, r.rungDur(), latencyLimitMs, send)
	for _, p := range phases {
		r.account(p)
	}
	rungs = append([]rung{floor}, rungs...)
	g := goodput(bracket(rungs), latencyLimitMs)
	r.logf("  ladder:%s -> goodput %.1f/s", joinRates(rungs), g)
	r.set("p50_ms", fixed.p50(), "ms")
	r.set("goodput_rps", g, "1/s")
	r.mark("timed phases")
	return fixed
}

// ---- setups ----

// ragserverArgs are the flags every benchmarked ragserver runs with.
var ragserverArgs = []string{"-shards", "2", "-seed-demo"}

// bootServer starts one ragserver with -seed-demo, waits for /readyz,
// and (unless body is nil) streams body in, returning the server, the
// setup seconds, and the stream's documents per second.
func (r *runCtx) bootServer(name string, body []byte, ndocs int) (*proc, float64, float64, error) {
	t0 := time.Now()
	p, err := startProc(filepath.Join(r.bin, "ragserver"), name, r.dir, ragserverArgs...)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := p.waitReady(120 * time.Second); err != nil {
		return nil, 0, 0, err
	}
	if body == nil {
		return p, time.Since(t0).Seconds(), 0, nil
	}
	rate, err := r.streamIn(p.base, body, ndocs)
	return p, time.Since(t0).Seconds(), rate, err
}

// streamIn streams body (ndocs documents) through /ingest/stream,
// checks every document was acked, and returns documents per second.
func (r *runCtx) streamIn(base string, body []byte, ndocs int) (float64, error) {
	rate, _, err := r.streamFrame(base, body, ndocs)
	return rate, err
}

func (r *runCtx) streamFrame(base string, body []byte, ndocs int) (float64, streamFrame, error) {
	f, wall, err := postStream(newClient(1), base+"/ingest/stream", bytes.NewReader(body))
	if err != nil {
		return 0, f, err
	}
	r.attempted++
	if f.Indexed != uint64(ndocs) || f.Failed != 0 {
		r.failed++
		r.fail("stream acked %d of %d docs (%d failed)", f.Indexed, ndocs, f.Failed)
	}
	return float64(f.Indexed) / wall.Seconds(), f, nil
}

// streamParts streams docs as ingestParts consecutive streams and
// records ingest_docs_per_s as the median of their rates, so one
// stall does not set the figure. It returns the passages acked.
func (r *runCtx) streamParts(base string, docs []string) (int, error) {
	var rates []float64
	chunks := 0
	for i := 0; i < ingestParts; i++ {
		part := docs[i*len(docs)/ingestParts : (i+1)*len(docs)/ingestParts]
		rate, f, err := r.streamFrame(base, ndjson(part), len(part))
		if err != nil {
			return 0, err
		}
		rates = append(rates, rate)
		chunks += int(f.Chunks)
		r.logf("  stream of %d docs: %d passages at %.0f docs/s (throttled %d)", len(part), f.Chunks, rate, f.Throttled)
	}
	r.set("ingest_docs_per_s", median(rates), "1/s")
	return chunks, nil
}

// bootRepeated sets the server up setupRepeats times, keeping the last.
func (r *runCtx) bootRepeated(body []byte, ndocs int) (*proc, error) {
	var (
		p       *proc
		setups  []float64
		ingests []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if p != nil {
			p.stop()
		}
		var s, rate float64
		var err error
		p, s, rate, err = r.bootServer(fmt.Sprintf("ragserver-%d", k), body, ndocs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		ingests = append(ingests, rate)
	}
	r.reportSetup(setups)
	if body != nil {
		r.logf("  setup stream docs/s: %v", ingests)
		r.set("ingest_docs_per_s", median(ingests), "1/s")
	}
	return p, nil
}

// ---- post-run probes shared by the workloads ----

// verdictProbe posts labelled triples to /verify, checks each verdict
// against det, and records verdict_f1.
func (r *runCtx) verdictProbe(c *http.Client, base string, det *core.Detector, probe []labeled) {
	replies := make([][]byte, len(probe))
	statuses := make([]int, len(probe))
	parallelFor(len(probe), r.conns, func(i int) {
		t := probe[i]
		statuses[i], replies[i], _ = postRaw(c, base+"/verify", mustJSON(map[string]string{
			"question": t.Question, "context": t.Context, "response": t.Response}))
	})
	triples := make([]core.Triple, len(probe))
	for i, t := range probe {
		triples[i] = t.Triple
	}
	want, errs := scoreAll(det, triples, r.conns)
	pred := make([]bool, len(probe))
	label := make([]bool, len(probe))
	r.attempted += len(probe)
	for i := range probe {
		label[i] = probe[i].Correct
		var w verdictWire
		if statuses[i] != http.StatusOK || json.Unmarshal(replies[i], &w) != nil || errs[i] != nil {
			r.failed++
			r.fail("verify probe %d: status %d", i, statuses[i])
			continue
		}
		pred[i] = w.Trusted
		if err := sameVerdict(w, want[i]); err != nil {
			r.failed++
			r.fail("verify probe %d: %v", i, err)
		}
	}
	r.set("verdict_f1", f1(pred, label), "ratio")
}

// searchProbe runs /search k=10 for each query after the run, checks
// each reply against the exact oracle, and records recall_at_10.
func (r *runCtx) searchProbe(c *http.Client, base string, oracle *vectorOracle, queries []string) {
	var recalls []float64
	for _, q := range queries {
		r.attempted++
		st, body, err := postRaw(c, base+"/search", mustJSON(map[string]interface{}{"query": q, "k": probeK}))
		var reply struct {
			Hits []hitWire `json:"hits"`
		}
		if err != nil || st != http.StatusOK || json.Unmarshal(body, &reply) != nil {
			r.failed++
			r.fail("search probe %q: status %d %v", q, st, err)
			continue
		}
		want, err := oracle.search(q, probeK)
		if err != nil {
			r.fail("search oracle: %v", err)
			return
		}
		if err := sameHits(reply.Hits, want, probeK); err != nil {
			r.failed++
			r.fail("search probe %q: %v", q, err)
		}
		recalls = append(recalls, recallAt(reply.Hits, want, probeK))
	}
	r.set("recall_at_10", mean(recalls), "ratio")
}

// ---- verify-cold ----

func runVerifyCold(r *runCtx) error {
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
	srv, err := r.bootRepeated(nil, 0)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(r.conns)

	bodies := make([][]byte, len(triples))
	for i, t := range triples {
		bodies[i] = mustJSON(map[string]string{"question": t.Question, "context": t.Context, "response": t.Response})
	}
	replies := make([][]byte, len(triples))
	statuses := make([]int, len(triples))
	var cursor atomic.Int64
	overrun := atomic.Bool{}
	send := func(conn, i int) outcome {
		j := int(cursor.Add(1) - 1)
		if j >= len(triples) {
			overrun.Store(true)
			return outcomeFailed
		}
		st, body, err := postRaw(c, srv.base+"/verify", bodies[j])
		statuses[j], replies[j] = st, body
		return classify(st, err)
	}
	r.logf("verify-cold: %d distinct uncalibrated triples available", len(triples))
	nFixed := r.timedRun(verifyRate, verifyLadder, r.conns, r.verifyFixedDur(), send).Sent
	if overrun.Load() {
		r.fail("ran out of distinct triples after %d sends", len(triples))
	}
	sent := int(cursor.Load())
	if sent > len(triples) {
		sent = len(triples)
	}

	// Input-property guards: nothing repeated, nothing calibrated, the
	// verdict cache never hit.
	st, err := statsOf(c, srv.base)
	if err != nil {
		return err
	}
	if st.VerdictCache.Hits != 0 {
		r.fail("verdict cache hit %d times on distinct triples", st.VerdictCache.Hits)
	}
	sentTriples := make([]core.Triple, sent)
	for i := range sentTriples {
		sentTriples[i] = triples[i].Triple
	}
	r.logf("  guards: %d sent, 0 repeated, 0 in calibration set, verdict-cache hits %d, repeated-prompt share %.3f, batch items/batch %.2f",
		sent, st.VerdictCache.Hits, promptRepeatShare(sentTriples, cal), st.Batch.MeanOccupancy)

	// Output check: every verdict bit-identical to the oracle detector.
	det, err := newOracleDetector(cal, r.conns)
	if err != nil {
		return err
	}
	r.mark("oracle detector calibrated")
	want, errs := scoreAll(det, sentTriples, r.conns)
	r.mark("verdicts rescored")
	pred := make([]bool, nFixed)
	label := make([]bool, nFixed)
	for i := 0; i < sent; i++ {
		if statuses[i] != http.StatusOK {
			continue // counted as failed by the phase
		}
		var w verdictWire
		if err := json.Unmarshal(replies[i], &w); err != nil || errs[i] != nil {
			r.failed++
			r.fail("verify %d: undecodable reply or oracle error", i)
			continue
		}
		if err := sameVerdict(w, want[i]); err != nil {
			r.failed++
			r.fail("verify %d: %v", i, err)
		}
		if i < nFixed {
			pred[i], label[i] = w.Trusted, triples[i].Correct
		}
	}
	r.set("verdict_f1", f1(pred, label), "ratio")

	// The document path, after the verification phases: stream a
	// knowledge base in, then probe retrieval over it.
	if _, err := r.streamParts(srv.base, kb.Docs); err != nil {
		return err
	}
	demo, err := demoContexts()
	if err != nil {
		return err
	}
	oracle, err := newVectorOracle(demo, [][]string{kb.Docs})
	if err != nil {
		return err
	}
	r.mark("vector oracle built")
	r.searchProbe(c, srv.base, oracle, kb.Questions)
	return nil
}

// ---- ask-zipf ----

func runAskZipf(r *runCtx) error {
	cal, err := calibrationTriples()
	if err != nil {
		return err
	}
	corp, err := makeCorpus(r.seed, askDocs, askPool)
	if err != nil {
		return err
	}
	srv, err := r.bootRepeated(ndjson(corp.Docs), len(corp.Docs))
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(r.conns)

	const maxSends = 20000
	draws := zipfDraws(r.seed, len(corp.Questions), maxSends, zipfS)
	bodies := make([][]byte, len(corp.Questions))
	for i, q := range corp.Questions {
		bodies[i] = mustJSON(map[string]string{"question": q})
	}
	replies := make([][]byte, maxSends)
	statuses := make([]int, maxSends)
	var cursor atomic.Int64
	send := func(conn, i int) outcome {
		j := int(cursor.Add(1) - 1)
		if j >= maxSends {
			return outcomeFailed
		}
		st, body, err := postRaw(c, srv.base+"/ask", bodies[draws[j]])
		statuses[j], replies[j] = st, body
		return classify(st, err)
	}
	// Let the caches fill before timing: the first askWarmup draws go
	// out as fast as the two connections allow.
	r.account(runOpenLoop("warmup", r.conns, warmupRate, warmupDur, send))
	before, err := statsOf(c, srv.base)
	if err != nil {
		return err
	}
	r.timedRun(askRate, askLadder, r.conns, r.fixedDur(), send)
	after, err := statsOf(c, srv.base)
	if err != nil {
		return err
	}
	sent := int(cursor.Load())
	if sent > maxSends {
		r.fail("ran past %d sends", maxSends)
		sent = maxSends
	}
	distinct := map[int]bool{}
	for _, d := range draws[:sent] {
		distinct[d] = true
	}
	r.logf("  guards: %d sends over %d distinct questions (pool %d); verdict-cache hit share %.3f, embed-cache hit share %.3f",
		sent, len(distinct), len(corp.Questions),
		hitShare(after.VerdictCache, before.VerdictCache), hitShare(after.EmbedCache, before.EmbedCache))

	// Output checks: context equals the flat-oracle top-k; verdict equals
	// direct scoring of the returned (question, context, response).
	demo, err := demoContexts()
	if err != nil {
		return err
	}
	oracle, err := newVectorOracle(demo, [][]string{corp.Docs})
	if err != nil {
		return err
	}
	r.mark("vector oracle built")
	det, err := newOracleDetector(cal, r.conns)
	if err != nil {
		return err
	}
	r.mark("oracle detector calibrated")
	type answer struct {
		Question string      `json:"question"`
		Context  string      `json:"context"`
		Response string      `json:"response"`
		Verdict  verdictWire `json:"verdict"`
	}
	// The oracle's top-k for every distinct question, on all cores.
	asked := make([]int, 0, len(distinct))
	for d := range distinct {
		asked = append(asked, d)
	}
	oracleHits := make([][]vecdb.Hit, len(asked))
	oracleErrs := make([]error, len(asked))
	parallelFor(len(asked), r.conns, func(i int) {
		oracleHits[i], oracleErrs[i] = oracle.search(corp.Questions[asked[i]], askTopK)
	})
	wantHits := map[string][]vecdb.Hit{}
	for i, d := range asked {
		if oracleErrs[i] != nil {
			return oracleErrs[i]
		}
		wantHits[corp.Questions[d]] = oracleHits[i]
	}
	uniq := map[string]int{}
	var triples []core.Triple
	answers := make([]answer, sent)
	for i := 0; i < sent; i++ {
		if statuses[i] != http.StatusOK {
			continue
		}
		a := &answers[i]
		if err := json.Unmarshal(replies[i], a); err != nil {
			r.failed++
			r.fail("ask %d: undecodable reply", i)
			continue
		}
		q := corp.Questions[draws[i]]
		if a.Question != q {
			r.failed++
			r.fail("ask %d: answered %q for %q", i, a.Question, q)
			continue
		}
		if !sameContext(a.Context, wantHits[q], askTopK) {
			r.failed++
			r.fail("ask %d: context differs from the flat-oracle top-3 for %q", i, q)
		}
		t := core.Triple{Question: q, Context: a.Context, Response: a.Response}
		if _, ok := uniq[tripleKey(t)]; !ok {
			uniq[tripleKey(t)] = len(triples)
			triples = append(triples, t)
		}
	}
	want, errs := scoreAll(det, triples, r.conns)
	r.mark("answers checked")
	for i := 0; i < sent; i++ {
		if statuses[i] != http.StatusOK || answers[i].Question == "" {
			continue
		}
		a := answers[i]
		j := uniq[tripleKey(core.Triple{Question: a.Question, Context: a.Context, Response: a.Response})]
		if errs[j] != nil {
			r.failed++
			r.fail("ask %d: oracle: %v", i, errs[j])
			continue
		}
		if err := sameVerdict(a.Verdict, want[j]); err != nil {
			r.failed++
			r.fail("ask %d: verdict: %v", i, err)
		}
	}

	probe, err := verifyTriples(r.seed, cal)
	if err != nil {
		return err
	}
	r.verdictProbe(c, srv.base, det, probe[:f1ProbeTriples])
	r.mark("verdict probe")
	r.searchProbe(c, srv.base, oracle, corp.Questions[:probeQueries])
	return nil
}

func hitShare(after, before serve.CacheStats) float64 {
	h := float64(after.Hits - before.Hits)
	m := float64(after.Misses - before.Misses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// ---- cluster-ingest-search ----

// clusterStack is one booted cluster: three durable shardnodes and the
// routing ragserver.
type clusterStack struct {
	nodes  []*proc
	router *proc
	dir    string
}

func (s *clusterStack) stop() {
	if s.router != nil {
		s.router.stop()
	}
	for _, n := range s.nodes {
		n.stop()
	}
	os.RemoveAll(s.dir)
}

// checkpointEvery keeps the shard nodes' background checkpoints out of
// the measured window: a run is far shorter, so WAL appends and fsyncs
// are all the durable layer does while it is timed.
const checkpointEvery = 10 * time.Minute

// bootCluster starts three shardnodes (-fsync always), waits until each
// answers /readyz, then starts the router with -seed-demo and waits for
// its /readyz. Waiting for the nodes first keeps the router's attach
// from falling into its 500 ms retry sleep.
func (r *runCtx) bootCluster(k int) (*clusterStack, float64, error) {
	s := &clusterStack{dir: filepath.Join(r.dir, fmt.Sprintf("cluster-%d", k))}
	t0 := time.Now()
	var shards []map[string]string
	for i := 0; i < 3; i++ {
		p, err := startProc(filepath.Join(r.bin, "shardnode"), fmt.Sprintf("shardnode-%d-%d", k, i), r.dir,
			"-data-dir", filepath.Join(s.dir, fmt.Sprintf("node%d", i)), "-fsync", "always",
			"-checkpoint-every", checkpointEvery.String())
		if err != nil {
			return s, 0, err
		}
		s.nodes = append(s.nodes, p)
		shards = append(shards, map[string]string{"primary": p.base})
	}
	for _, p := range s.nodes {
		if err := p.waitReady(60 * time.Second); err != nil {
			return s, 0, err
		}
	}
	topo := filepath.Join(s.dir, "nodes.json")
	if err := os.WriteFile(topo, mustJSON(map[string]interface{}{"shards": shards}), 0o644); err != nil {
		return s, 0, err
	}
	p, err := startProc(filepath.Join(r.bin, "ragserver"), fmt.Sprintf("router-%d", k), r.dir,
		"-cluster", topo, "-seed-demo")
	if err != nil {
		return s, 0, err
	}
	s.router = p
	if err := p.waitReady(120 * time.Second); err != nil {
		return s, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

func runCluster(r *runCtx) error {
	cal, err := calibrationTriples()
	if err != nil {
		return err
	}
	corp, err := makeCorpus(r.seed, clusterDocs+clusterPaced, askPool)
	if err != nil {
		return err
	}
	phaseA, phaseB := corp.Docs[:clusterDocs], corp.Docs[clusterDocs:]

	var stack *clusterStack
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if stack != nil {
			stack.stop()
		}
		var s float64
		stack, s, err = r.bootCluster(k)
		if err != nil {
			stack.stop()
			return err
		}
		setups = append(setups, s)
	}
	defer stack.stop()
	r.reportSetup(setups)
	base := stack.router.base

	// Phase A: stream the corpus as fast as the cluster accepts it.
	chunksA, err := r.streamParts(base, phaseA)
	if err != nil {
		return err
	}
	streamC, searchC := newClient(1), newClient(1)

	// Phase B: open-loop /search on one connection while a paced stream
	// writes on the other.
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		fb      streamFrame
		written int
		errB    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fb, written, errB = pacedStream(streamC, base+"/ingest/stream", phaseB, pacedDocsRate, stop)
	}()
	const maxSends = 20000
	draws := uniformDraws(r.seed, len(corp.Questions), maxSends)
	bodies := make([][]byte, len(corp.Questions))
	for i, q := range corp.Questions {
		bodies[i] = mustJSON(map[string]interface{}{"query": q, "k": probeK})
	}
	var cursor atomic.Int64
	var badReplies atomic.Int64
	send := func(conn, i int) outcome {
		j := int(cursor.Add(1) - 1)
		st, body, err := postRaw(searchC, base+"/search", bodies[draws[j%maxSends]])
		o := classify(st, err)
		if o == outcomeOK {
			var reply struct {
				Hits []hitWire `json:"hits"`
			}
			if json.Unmarshal(body, &reply) != nil || len(reply.Hits) != probeK {
				badReplies.Add(1)
			}
		}
		return o
	}
	r.timedRun(searchRate, searchLadder, 1, r.fixedDur(), send)
	close(stop)
	wg.Wait()
	if errB != nil {
		return errB
	}
	r.attempted++
	if fb.Indexed != uint64(written) || fb.Failed != 0 {
		r.failed++
		r.fail("phase B stream acked %d of %d docs", fb.Indexed, written)
	}
	if n := badReplies.Load(); n > 0 {
		r.failed += int(n)
		r.fail("%d /search replies without %d hits", n, probeK)
	}
	r.logf("  phase B: paced stream wrote %d docs (%d passages)", fb.Indexed, fb.Chunks)

	// Output checks: stored passages equal the acked passages; top-k
	// equals a single-process exact vecdb over the same passages.
	demo, err := demoContexts()
	if err != nil {
		return err
	}
	st, err := statsOf(searchC, base)
	if err != nil {
		return err
	}
	acked := len(demo) + chunksA + int(fb.Chunks)
	if st.Docs != acked {
		r.fail("cluster holds %d passages, acked %d", st.Docs, acked)
	}
	r.logf("  cluster: %d passages (acked %d), router retries %d hedges %d failovers %d",
		st.Docs, acked, st.Cluster.Router.ReadRetries, st.Cluster.Router.Hedges, st.Cluster.Router.Failovers)
	oracle, err := newVectorOracle(demo, [][]string{phaseA, phaseB[:written]})
	if err != nil {
		return err
	}
	r.mark("vector oracle built")
	r.searchProbe(searchC, base, oracle, corp.Questions[:probeQueries])
	det, err := newOracleDetector(cal, r.conns)
	if err != nil {
		return err
	}
	probe, err := verifyTriples(r.seed, cal)
	if err != nil {
		return err
	}
	r.verdictProbe(newClient(r.conns), base, det, probe[:f1ProbeTriples])
	return nil
}
