package main

import (
	"fmt"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailMin is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMin = 10

// tailStat is the highest percentile with at least tailMin samples
// beyond it.
type tailStat struct {
	value  float64
	pct    float64 // the percentile the value sits at
	n      int     // sample count
	beyond int     // samples above the value
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.1f of %d samples, %d beyond", t.pct, t.n, t.beyond)
}

// tail returns the highest percentile of xs that has at least tailMin
// samples beyond it: with n sorted samples, the one at index n-1-tailMin.
// With too few samples it returns the maximum and says so through
// beyond < tailMin.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := max(n-1-tailMin, 0)
	if n <= tailMin {
		idx = n - 1
	}
	return tailStat{value: s[idx], pct: 100 * float64(idx+1) / float64(n), n: n, beyond: n - 1 - idx}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// sample is one timed request, at the same index as its request: when
// it was due, when the generator got
// it onto a connection, and when its answer had been read, all relative
// to the phase start.
type sample struct {
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	err    error
	resp   []byte
}

// latency is measured from the due time, so a request the generator
// could only send late is charged for the wait a stall imposed on it.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator put the request on the wire.
func (s sample) lag() time.Duration { return s.sent - s.due }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latenciesMS returns each sample's due-time latency in milliseconds.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
	}
	return out
}

// bestLatenciesMS takes rounds that sent the same requests in the same
// order and returns each request's lowest due-time latency over them,
// in milliseconds. Another tenant of the host slows some rounds and
// not others; the lowest reading of a request is the one it slowed
// least. A failed or refused reading is taken only when every reading
// of that request failed, so a quick refusal never passes for a fast
// answer.
func bestLatenciesMS(rounds [][]sample) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]float64, len(rounds[0]))
	ok := make([]bool, len(rounds[0]))
	for r, ss := range rounds {
		for i, s := range ss {
			l, good := ms(s.latency()), s.err == nil && s.status == 200
			if r == 0 || (good && !ok[i]) || (good == ok[i] && l < out[i]) {
				out[i], ok[i] = l, good
			}
		}
	}
	return out
}

// lagsMS returns how late each sample was sent, in milliseconds.
func lagsMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lag())
	}
	return out
}

// span is one timed call at a layer boundary. rid ties the spans of one
// request together across the client, the gateway and the node.
type span struct {
	name       string
	rid        int64
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTime is parent's duration minus the part of its interval that the
// children cover: overlapping children (a hedge racing its primary)
// count once, and child time outside the parent (a hedge that finished
// after the parent answered) not at all.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}
