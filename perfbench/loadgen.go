package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request for the phase accounting.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeShed // refused with 429
)

// sendFunc issues request i of a phase on connection conn and reports
// how it ended. It is called from conns goroutines at once.
type sendFunc func(conn, i int) outcome

// phase is the outcome of one open-loop phase at a fixed offered rate.
type phase struct {
	Name     string
	Rate     float64
	Duration time.Duration
	Sent     int
	OK       int
	Failed   int
	Shed     int
	// LatMs holds every request's latency from its due time; failed and
	// shed requests read +Inf, so they miss every latency limit.
	LatMs []float64
	// LateMs is how late the generator sent requests that found a
	// connection free at their due time (sleep overshoot and dispatch).
	LateMs []float64
	// Backlog counts requests still unsent when the schedule ended.
	Backlog int
}

// runOpenLoop sends rate×dur requests, request i due at start+i/rate,
// over conns connections. A connection that is free waits for the next
// due time; a busy one picks up overdue requests as soon as it frees,
// and their latency still counts from the due time, so a stall shows in
// every request it delayed.
func runOpenLoop(name string, conns int, rate float64, dur time.Duration, send sendFunc) phase {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	period := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, n)
	sentAt := make([]time.Time, n)
	late := make([]float64, n)
	free := make([]bool, n)
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					free[i] = true
					time.Sleep(d)
				}
				sentAt[i] = time.Now()
				if free[i] {
					late[i] = float64(sentAt[i].Sub(due)) / 1e6
				}
				outs[i] = send(c, i)
				lat[i] = float64(time.Since(due)) / 1e6
			}
		}(c)
	}
	wg.Wait()
	end := start.Add(dur)
	p := phase{Name: name, Rate: rate, Duration: dur, Sent: n}
	for i := 0; i < n; i++ {
		switch outs[i] {
		case outcomeOK:
			p.OK++
			p.LatMs = append(p.LatMs, lat[i])
		case outcomeFailed:
			p.Failed++
			p.LatMs = append(p.LatMs, math.Inf(1))
		case outcomeShed:
			p.Shed++
			p.LatMs = append(p.LatMs, math.Inf(1))
		}
		if free[i] {
			p.LateMs = append(p.LateMs, late[i])
		}
		if sentAt[i].After(end) {
			p.Backlog++
		}
	}
	sort.Float64s(p.LatMs)
	return p
}

func (p phase) p50() float64 { return quantile(p.LatMs, 0.5) }

// tail returns the phase's tail quantile (see tailQuantile) and its
// latency in ms.
func (p phase) tail() (q, ms float64) {
	q = tailQuantile(len(p.LatMs))
	return q, quantile(p.LatMs, q)
}

// maxBacklog is the backlog rule: a phase whose schedule ended with
// more than this many requests unsent was falling behind, not keeping
// up.
func maxBacklog(n int) int {
	b := n / 20
	if b < 2 {
		b = 2
	}
	return b
}

// rung is one step of the goodput ladder.
type rung struct {
	Rate    float64
	Q       float64
	TailMs  float64
	Backlog int
	// Behind is set when the rung broke the backlog rule.
	Behind bool
	Pass   bool
}

func rungOf(p phase, limitMs float64) rung {
	q, t := p.tail()
	r := rung{Rate: p.Rate, Q: q, TailMs: t, Backlog: p.Backlog}
	r.Behind = p.Backlog > maxBacklog(p.Sent)
	r.Pass = t <= limitMs && !r.Behind
	return r
}

// goodput is the highest offered rate the ladder sustained within the
// latency limit and without a growing backlog, given rungs in rising
// rate order up to the first failure (see bracket). Between the last
// passing rung and the failing one it interpolates linearly on the tail
// latency (which, timed from due times, also grows with a backlog), so
// the figure moves smoothly instead of jumping a whole rung; a failing
// rung whose tail stayed within the limit (a backlog failure alone) or
// reached a miss (+Inf) pins it to the last passing rate. With no
// passing rung it is 0; with no failing rung it is the top rate.
func goodput(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for i, r := range rungs {
		if !r.Pass {
			if i == 0 {
				return 0
			}
			prev := rungs[i-1]
			if r.TailMs <= limitMs || math.IsInf(r.TailMs, 1) || r.TailMs <= prev.TailMs {
				return prev.Rate
			}
			frac := (limitMs - prev.TailMs) / (r.TailMs - prev.TailMs)
			frac = math.Max(0, math.Min(1, frac))
			return prev.Rate + frac*(r.Rate-prev.Rate)
		}
		best = r.Rate
	}
	return best
}

// bisectSteps is how many times the ladder halves the bracket between
// its last passing and first failing rate.
const bisectSteps = 1

// runLadder steps the offered rate up from base by factor until a rung
// fails (or maxRungs pass), then bisects the bracket between the last
// passing rate (floor, which the caller measured already) and the
// failing one bisectSteps times. It returns every rung it ran and
// their phases; goodput reads the bracket from the final pair.
func runLadder(conns int, floor rung, base, factor float64, maxRungs int, rungLen time.Duration, limitMs float64, send sendFunc) ([]rung, []phase) {
	var rungs []rung
	var phases []phase
	step := func(rate float64) rung {
		p := runOpenLoop("ladder", conns, rate, rungLen, send)
		r := rungOf(p, limitMs)
		rungs = append(rungs, r)
		phases = append(phases, p)
		return r
	}
	lo := floor
	var hi *rung
	for rate, k := base, 0; k < maxRungs; rate, k = rate*factor, k+1 {
		r := step(rate)
		if !r.Pass {
			hi = &r
			break
		}
		lo = r
	}
	for i := 0; hi != nil && i < bisectSteps; i++ {
		r := step((lo.Rate + hi.Rate) / 2)
		if r.Pass {
			lo = r
		} else {
			hi = &r
		}
	}
	return rungs, phases
}

// bracket orders a ladder's rungs for goodput: the passing rungs by
// rate, then the lowest-rate failing rung above them.
func bracket(rungs []rung) []rung {
	var pass []rung
	var fail *rung
	for i := range rungs {
		if rungs[i].Pass {
			pass = append(pass, rungs[i])
		}
	}
	sort.Slice(pass, func(i, j int) bool { return pass[i].Rate < pass[j].Rate })
	top := 0.0
	if len(pass) > 0 {
		top = pass[len(pass)-1].Rate
	}
	for i := range rungs {
		r := rungs[i]
		if !r.Pass && r.Rate > top && (fail == nil || r.Rate < fail.Rate) {
			fail = &rungs[i]
		}
	}
	if fail != nil {
		pass = append(pass, *fail)
	}
	return pass
}
