package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/vecdb"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0.5}, {20, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 3000; n++ {
		q := tailQuantile(n)
		// Samples strictly above the interpolated q-quantile's lower
		// order statistic.
		beyond := n - 1 - int(math.Floor(q*float64(n-1)))
		if beyond < 10 {
			t.Fatalf("n=%d: p%.2f leaves %d samples beyond it", n, 100*q, beyond)
		}
	}
}

func TestQuantileInterpolatesAndHandlesMisses(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := quantile(s, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(s, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := quantile(s, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("q90 = %v", got)
	}
	withMiss := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(withMiss, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a quantile reaching a failed request must read +Inf, got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestZipfDrawsDeterministicPerSeed(t *testing.T) {
	a := zipfDraws(7, 300, 2000, 1.3)
	b := zipfDraws(7, 300, 2000, 1.3)
	c := zipfDraws(8, 300, 2000, 1.3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different draws")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical draws")
	}
	counts := make([]int, 300)
	for _, x := range a {
		if x < 0 || x >= 300 {
			t.Fatalf("draw %d out of range", x)
		}
		counts[x]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[200] {
		t.Errorf("draws are not Zipf-shaped: rank0=%d rank10=%d rank200=%d", counts[0], counts[10], counts[200])
	}
}

func TestVerifyTriplesDeterministicDistinctAndUncalibrated(t *testing.T) {
	cal, err := calibrationTriples()
	if err != nil {
		t.Fatal(err)
	}
	a, err := verifyTriples(3, cal)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := verifyTriples(3, cal)
	c, _ := verifyTriples(4, cal)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different triples")
	}
	if reflect.DeepEqual(a[:50], c[:50]) {
		t.Fatal("different seeds gave the same leading triples")
	}
	if len(a) < 3000 {
		t.Fatalf("only %d distinct triples; a run needs a few thousand", len(a))
	}
	inCal := map[string]bool{}
	for _, t := range cal {
		inCal[tripleKey(t)] = true
	}
	seen := map[string]bool{}
	for _, x := range a {
		k := tripleKey(x.Triple)
		if seen[k] {
			t.Fatalf("triple repeats: %q", x.Response)
		}
		if inCal[k] {
			t.Fatalf("triple is in the calibration set: %q", x.Response)
		}
		seen[k] = true
	}
}

func TestCorpusDeterministicAndQuestionsDistinct(t *testing.T) {
	a, err := makeCorpus(5, 2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeCorpus(5, 2000, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave a different corpus")
	}
	seen := map[string]bool{}
	for _, q := range a.Questions {
		if seen[q] {
			t.Fatalf("question repeats: %q", q)
		}
		seen[q] = true
	}
	if letterCode(0) != "aaaa" || letterCode(27) != "aabb" {
		t.Errorf("letterCode: %s %s", letterCode(0), letterCode(27))
	}
}

func TestGoodputLadderAndBacklogRule(t *testing.T) {
	if maxBacklog(10) != 2 || maxBacklog(200) != 10 {
		t.Fatalf("maxBacklog: %d %d", maxBacklog(10), maxBacklog(200))
	}
	mk := func(rate float64, n int, lat float64, backlog int) phase {
		p := phase{Rate: rate, Sent: n, Backlog: backlog}
		for i := 0; i < n; i++ {
			p.LatMs = append(p.LatMs, lat)
		}
		return p
	}
	const limit = 100
	pass := rungOf(mk(50, 100, 20, 0), limit)
	if !pass.Pass {
		t.Fatal("a fast rung without backlog must pass")
	}
	behind := rungOf(mk(60, 100, 20, 6), limit)
	if behind.Pass || !behind.Behind {
		t.Fatal("a rung that ended with more than 5% unsent must fail as behind")
	}
	slow := rungOf(mk(60, 100, 300, 0), limit)
	if slow.Pass || slow.Behind {
		t.Fatal("a rung over the latency limit must fail on latency")
	}
	// Interpolation between the last passing and first failing rung.
	if g := goodput([]rung{pass, slow}, limit); math.Abs(g-(50+10*(100-20)/(300-20.0))) > 1e-9 {
		t.Errorf("interpolated goodput = %v", g)
	}
	// A backlog failure within the latency limit pins goodput to the
	// last passing rate.
	if g := goodput([]rung{pass, behind}, limit); g != 50 {
		t.Errorf("goodput after a backlog failure = %v, want 50", g)
	}
	// The bracket keeps passing rungs in rate order, then the lowest
	// failing rate above them; bisection rungs land in between.
	b := bracket([]rung{pass, slow, rungOf(mk(55, 100, 30, 0), limit), rungOf(mk(57.5, 100, 200, 0), limit)})
	if len(b) != 3 || b[0].Rate != 50 || b[1].Rate != 55 || b[2].Rate != 57.5 {
		t.Errorf("bracket = %+v", b)
	}
	// Failed or shed requests read +Inf and count as misses.
	missed := mk(60, 100, 20, 0)
	for i := 0; i < 11; i++ {
		missed.LatMs[len(missed.LatMs)-1-i] = math.Inf(1)
	}
	sort.Float64s(missed.LatMs)
	if r := rungOf(missed, limit); r.Pass {
		t.Error("a rung whose tail is failed requests must not pass")
	}
	if g := goodput([]rung{pass, rungOf(missed, limit)}, limit); g != 50 {
		t.Errorf("goodput with missed tail = %v, want 50", g)
	}
	if g := goodput([]rung{pass, pass}, limit); g != 50 {
		t.Errorf("all-passing ladder = %v", g)
	}
	if g := goodput([]rung{slow}, limit); g != 0 {
		t.Errorf("no passing rung = %v", g)
	}
}

func TestOpenLoopCountsBacklogAndLatencyFromDueTime(t *testing.T) {
	// 1 connection, 200/s offered, 10 ms service: the generator falls
	// behind, and later requests' latency includes their wait.
	p := runOpenLoop("t", 1, 200, 200*time.Millisecond, func(conn, i int) outcome {
		time.Sleep(10 * time.Millisecond)
		return outcomeOK
	})
	if p.Sent != 40 || p.OK != 40 {
		t.Fatalf("sent %d ok %d", p.Sent, p.OK)
	}
	if p.Backlog <= maxBacklog(p.Sent) {
		t.Errorf("backlog %d: an overloaded phase must break the backlog rule", p.Backlog)
	}
	if p.LatMs[len(p.LatMs)-1] < 150 {
		t.Errorf("last latency %.1fms: must count the wait from the due time", p.LatMs[len(p.LatMs)-1])
	}
	q := runOpenLoop("t", 2, 50, 200*time.Millisecond, func(conn, i int) outcome {
		if i == 3 {
			return outcomeShed
		}
		return outcomeOK
	})
	if q.Backlog != 0 || q.Shed != 1 || !math.IsInf(q.LatMs[len(q.LatMs)-1], 1) {
		t.Errorf("light phase: backlog %d shed %d", q.Backlog, q.Shed)
	}
}

func TestSelfTimeIsIntervalUnion(t *testing.T) {
	if got := unionLength([]interval{{0, 10}, {5, 15}, {20, 30}, {29, 31}}); got != 26 {
		t.Errorf("union = %d, want 26", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
	// Two parallel children overlapping each other count once, and a
	// child sticking out of the parent is clipped.
	parent := interval{0, 100}
	kids := []interval{{10, 40}, {20, 50}, {90, 120}}
	if got := selfTime(parent, kids); got != 100-40-10 {
		t.Errorf("self = %d, want 50", got)
	}
}

func TestPartitionSumsToRoot(t *testing.T) {
	root := span{"serve", 1, 0, 100}
	spans := []span{
		root,
		{"rag.retrieve", 1, 10, 60},
		{"vecdb.embed", 1, 12, 20},
		{"vecdb.search", 1, 20, 50},
		{"vecdb.search", 1, 22, 55}, // a parallel shard search
		{"slm", 1, 70, 90},
	}
	parts := partition(root, spans)
	var total int64
	for _, v := range parts {
		total += v
	}
	if total != 100 {
		t.Fatalf("partition sums to %d, want 100", total)
	}
	want := map[string]int64{"serve": 10 + 10 + 10, "rag.retrieve": 2 + 5, "vecdb.embed": 8, "vecdb.search": 35, "slm": 20}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("partition = %v, want %v", parts, want)
	}
}

func TestAttributeByEnclosure(t *testing.T) {
	spans := []span{
		{"cluster.rpc_search", 7, 0, 50},
		{"cluster.rpc_search", 8, 60, 90},
		{"node.search", 0, 5, 45},
		{"vecdb.search", 0, 10, 40},
		{"node.search", 0, 65, 85},
	}
	if amb := attribute(spans); amb != 0 {
		t.Errorf("ambiguous share %v", amb)
	}
	for i, want := range []int64{7, 8, 7, 7, 8} {
		if spans[i].req != want {
			t.Errorf("span %d (%s) attributed to %d, want %d", i, spans[i].layer, spans[i].req, want)
		}
	}
}

func TestHitComparisonToleratesOnlyTies(t *testing.T) {
	hit := func(text string, score float64) vecdb.Hit {
		return vecdb.Hit{Document: vecdb.Document{Text: text}, Score: score}
	}
	want := []vecdb.Hit{hit("a", 0.9), hit("b", 0.8), hit("c", 0.8), hit("d", 0.7)}
	if err := sameHits([]hitWire{{Text: "a", Score: 0.9}, {Text: "c", Score: 0.8}}, want, 2); err != nil {
		t.Errorf("a tie straddling rank k must be accepted: %v", err)
	}
	if err := sameHits([]hitWire{{Text: "b", Score: 0.9}, {Text: "a", Score: 0.8}}, want, 2); err == nil {
		t.Error("a reordering across different scores must be rejected")
	}
	if err := sameHits([]hitWire{{Text: "a", Score: 0.9}, {Text: "x", Score: 0.8}}, want, 2); err == nil {
		t.Error("a passage the oracle does not rank at that score must be rejected")
	}
	if !sameContext("a c b", want, 3) || !sameContext("a b c", want, 3) {
		t.Error("contexts differing only in tie order must match")
	}
	if sameContext("a b d", want, 3) || sameContext("a b", want, 3) {
		t.Error("a wrong context must not match")
	}
	if r := recallAt([]hitWire{{Text: "a"}, {Text: "c", Score: 0.8}}, want, 2); r != 1 {
		t.Errorf("recall with a boundary tie = %v", r)
	}
}

func TestF1(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	label := []bool{true, false, true, false, true}
	// tp=2 fp=1 fn=1
	if got := f1(pred, label); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("f1 = %v", got)
	}
}

func TestHitsDigestIgnoresOnlyTieOrderAndBoundaryTies(t *testing.T) {
	hit := func(text string, score float64) vecdb.Hit {
		return vecdb.Hit{Document: vecdb.Document{Text: text}, Score: score}
	}
	a := []vecdb.Hit{hit("a", 0.9), hit("b", 0.8), hit("c", 0.8), hit("d", 0.7), hit("e", 0.7)}
	b := []vecdb.Hit{hit("a", 0.9), hit("c", 0.8), hit("b", 0.8), hit("x", 0.7), hit("y", 0.7)}
	if hitsDigest(a) != hitsDigest(b) {
		t.Error("reordered ties and a different pick from the boundary tie must digest alike")
	}
	c := []vecdb.Hit{hit("a", 0.9), hit("b", 0.8), hit("z", 0.8), hit("d", 0.7), hit("e", 0.7)}
	if hitsDigest(a) == hitsDigest(c) {
		t.Error("a different passage inside the ranking must change the digest")
	}
}
