package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
)

// labeled is one verification input with its dataset label.
type labeled struct {
	core.Triple
	Correct bool // dataset label is "correct"
}

func tripleKey(t core.Triple) string {
	return t.Question + "\x1f" + t.Context + "\x1f" + t.Response
}

// calibrationTriples are the triples ragserver -seed-demo calibrates
// on: every response of every item of dataset.Default().
func calibrationTriples() ([]core.Triple, error) {
	set, err := dataset.Default()
	if err != nil {
		return nil, err
	}
	var out []core.Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			out = append(out, core.Triple{Question: it.Question, Context: it.Context, Response: r.Text})
		}
	}
	return out, nil
}

// demoContexts are the passages ragserver -seed-demo stores, in order.
func demoContexts() ([]string, error) {
	set, err := dataset.Default()
	if err != nil {
		return nil, err
	}
	return set.Contexts(), nil
}

// verifyTripleItems is how many dataset items the verification inputs
// are drawn from: about 5.6k distinct triples, of which about 1.5k are
// also in the calibration set, so a run never runs out.
const verifyTripleItems = 8000

// verifyTriples draws distinct labelled triples from
// dataset.Generate(seed) and drops any that appear in the calibration
// set. The order is stratified: triples are grouped by (topic, label),
// each group is shuffled with the seed, and the groups are dealt out
// round-robin, so every stretch of the list carries the same mix of
// topics and labels and a short run's median does not hinge on which
// topics the shuffle happened to put first. The same seed gives the
// same list.
func verifyTriples(seed uint64, cal []core.Triple) ([]labeled, error) {
	set, err := dataset.Generate(seed, verifyTripleItems)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(cal))
	for _, t := range cal {
		seen[tripleKey(t)] = true
	}
	groups := map[string][]labeled{}
	var order []string
	for _, it := range set.Items {
		for _, r := range it.Responses {
			t := core.Triple{Question: it.Question, Context: it.Context, Response: r.Text}
			k := tripleKey(t)
			if seen[k] {
				continue
			}
			seen[k] = true
			g := it.Topic + "/" + string(r.Label)
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], labeled{Triple: t, Correct: r.Label == dataset.LabelCorrect})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, g := range order {
		l := groups[g]
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	var out []labeled
	for {
		n := len(out)
		for _, g := range order {
			if l := groups[g]; len(l) > 0 {
				out = append(out, l[0])
				groups[g] = l[1:]
			}
		}
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// corpus is a document set for /ingest/stream plus the questions the
// workloads ask of it.
type corpus struct {
	Docs      []string
	Questions []string // distinct, in draw order
}

// makeCorpus renders n handbook sections from dataset.Generate(seed)
// (one item's context each, tagged with a letter code so sections with
// the same policy text stay distinct documents: the embedder ignores
// digits, and equal vectors would tie) and a pool of up to nq distinct
// questions: an item's question together with its correct answer, so
// each question targets specific facts.
func makeCorpus(seed uint64, n, nq int) (corpus, error) {
	set, err := dataset.Generate(seed^0x5eed, n)
	if err != nil {
		return corpus{}, err
	}
	var c corpus
	seen := map[string]bool{}
	for i, it := range set.Items {
		c.Docs = append(c.Docs, fmt.Sprintf("Handbook section %s. %s", letterCode(i), it.Context))
		if len(c.Questions) >= nq {
			continue
		}
		r, err := it.Response(dataset.LabelCorrect)
		if err != nil {
			return corpus{}, err
		}
		q := it.Question + " " + r.Text
		if !seen[q] {
			seen[q] = true
			c.Questions = append(c.Questions, q)
		}
	}
	return c, nil
}

// letterCode spells i in base 26 with four letters (aaaa, aaab, ...).
func letterCode(i int) string {
	b := []byte("aaaa")
	for k := 3; k >= 0 && i > 0; k-- {
		b[k] = byte('a' + i%26)
		i /= 26
	}
	return string(b)
}

// zipfDraws draws count indices into a pool of size n with a Zipf(s)
// popularity law: index 0 is the most asked. Deterministic per seed.
func zipfDraws(seed uint64, n, count int, s float64) []int {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x21bf))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// uniformDraws draws count indices uniformly from [0, n).
func uniformDraws(seed uint64, n, count int) []int {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5ea7))
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// promptRepeatShare reports the share of (question, context, sentence)
// prompts in triples that already occurred earlier in the list or in
// the calibration set. Those prompts are answered from the SLM's
// internal signature memo even though the triple itself is new.
func promptRepeatShare(triples []core.Triple, cal []core.Triple) float64 {
	seen := map[string]bool{}
	add := func(t core.Triple) (total, repeats int) {
		for _, s := range core.SentenceSplitter(t.Response) {
			k := t.Question + "\x1f" + t.Context + "\x1f" + s
			total++
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
		return
	}
	for _, t := range cal {
		add(t)
	}
	var total, repeats int
	for _, t := range triples {
		n, r := add(t)
		total += n
		repeats += r
	}
	if total == 0 {
		return 0
	}
	return float64(repeats) / float64(total)
}
