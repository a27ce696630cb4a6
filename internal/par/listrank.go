package par

import "pathcover/internal/pram"

// RankIx performs list ranking by Wyllie pointer jumping. For every element
// i of the linked structure next (next[i] = successor index, or -1 at a
// terminal), it returns dist[i] — the number of links from i to its
// terminal — and last[i], the terminal itself. next may describe any
// number of disjoint lists (or, more generally, in-forests whose edges
// point toward the roots).
//
// Pointer jumping is O(log n) time but O(n log n) work; RankOptIx is the
// work-optimal variant. RankIx is retained as the simple reference and as
// the comparison point for the work-optimality ablation bench. dist
// accumulates link weights: the caller guarantees the totals fit I.
func RankIx[I Ix](s *pram.Sim, next []I) (dist, last []I) {
	return RankWeightedIx(s, next, nil)
}

// wyllieState keeps the phase bodies and working arrays of RankWeightedIx
// reusable per (Sim, width), so steady-state ranking performs no
// allocation.
type wyllieState[I Ix] struct {
	next, weight    []I
	dist, last, nxt []I
	nd, nn, nl      []I
	phase           int
	body            func(lo, hi int)
}

const (
	wylPhaseInit = iota
	wylPhaseJump
)

type wyllieKey[I Ix] struct{}

func wyllieOf[I Ix](s *pram.Sim) *wyllieState[I] {
	sc := s.Scratch()
	if v := sc.Aux(wyllieKey[I]{}); v != nil {
		return v.(*wyllieState[I])
	}
	st := &wyllieState[I]{}
	st.body = st.run
	sc.SetAux(wyllieKey[I]{}, st)
	return st
}

func (st *wyllieState[I]) run(lo, hi int) {
	switch st.phase {
	case wylPhaseInit:
		for i := lo; i < hi; i++ {
			st.nxt[i] = st.next[i]
			st.last[i] = I(i)
			if st.next[i] >= 0 {
				if st.weight == nil {
					st.dist[i] = 1
				} else {
					st.dist[i] = st.weight[i]
				}
			} else {
				st.dist[i] = 0
			}
		}
	case wylPhaseJump:
		dist, last, nxt := st.dist, st.last, st.nxt
		nd, nl, nn := st.nd, st.nl, st.nn
		for i := lo; i < hi; i++ {
			j := nxt[i]
			if j >= 0 {
				nd[i] = dist[i] + dist[j]
				nl[i] = last[j]
				nn[i] = nxt[j]
			} else {
				nd[i] = dist[i]
				nl[i] = last[i]
				nn[i] = -1
			}
		}
	}
}

// wyllieRounds is the number of jumping rounds Wyllie performs on n
// elements.
func wyllieRounds(n int) int {
	rounds := 0
	for v := 1; v < n; v <<= 1 {
		rounds++
	}
	return rounds
}

// chargeWyllie replays the exact charge sequence of RankWeightedIx on n
// elements (one init phase plus wyllieRounds cost-2 jump phases), the
// shared accounting of the fused and charge-replay routes.
func chargeWyllie(s *pram.Sim, n int) {
	if n <= 0 {
		return
	}
	p := s.Procs()
	s.Charge(int64(ceilDivInt(n, p)), int64(n)) // init phase
	for r := wyllieRounds(n); r > 0; r-- {      // jump rounds, cost 2
		s.Charge(int64(2*ceilDivInt(n, p)), int64(2*n))
	}
}

// RankWeightedIx is RankIx with a weight per link: dist[i] becomes the
// sum of weights along the path from i to its terminal. A nil weight
// slice means unit weights.
func RankWeightedIx[I Ix](s *pram.Sim, next []I, weight []I) (dist, last []I) {
	n := len(next)
	if n > 0 && s.PreferSequential(n) {
		// Fused sequential route: chase each chain once (two passes over
		// the structure in total) instead of log n pointer-jumping rounds
		// over six arrays, replaying the identical charge sequence.
		dist = pram.GrabNoClear[I](s, n)
		last = pram.GrabNoClear[I](s, n)
		chaseRank(s, next, weight, dist, last)
		chargeWyllie(s, n)
		return dist, last
	}
	st := wyllieOf[I](s)
	st.next, st.weight = next, weight
	st.dist = pram.GrabNoClear[I](s, n)
	st.last = pram.GrabNoClear[I](s, n)
	st.nxt = pram.GrabNoClear[I](s, n)
	st.phase = wylPhaseInit
	s.ParallelForRange(n, st.body)
	// Double buffers keep each jumping round exclusive-access: reads go to
	// the "cur" generation, writes to "new".
	st.nd = pram.GrabNoClear[I](s, n)
	st.nn = pram.GrabNoClear[I](s, n)
	st.nl = pram.GrabNoClear[I](s, n)
	st.phase = wylPhaseJump
	for r := wyllieRounds(n); r > 0; r-- {
		s.ForCostRange(n, 2, st.body)
		st.dist, st.nd = st.nd, st.dist
		st.last, st.nl = st.nl, st.last
		st.nxt, st.nn = st.nn, st.nxt
	}
	dist, last = st.dist, st.last
	pram.Release(s, st.nxt)
	pram.Release(s, st.nd)
	pram.Release(s, st.nn)
	pram.Release(s, st.nl)
	st.next, st.weight = nil, nil
	st.dist, st.last, st.nxt, st.nd, st.nn, st.nl = nil, nil, nil, nil, nil, nil
	return dist, last
}

// RankOptIx is randomized work-optimal list ranking: random-mate
// contraction splices out a constant expected fraction of the elements
// per round until at most n/log n survive, Wyllie ranks the survivors,
// and the spliced elements are reinstated in reverse order. Expected work
// is O(n); time is O(log n) with n/log n processors (w.h.p.).
//
// seed makes the coin flips deterministic for a given input.
func RankOptIx[I Ix](s *pram.Sim, next []I, seed uint64) (dist, last []I) {
	return RankOptWeightedIx(s, next, nil, seed)
}

type splice[I Ix] struct {
	elem I // the spliced-out element
	succ I // its successor at splice time
	w    I // weight of the link elem->succ at splice time
}

// rankOptState keeps the random-mate contraction's phase bodies and
// per-round bookkeeping reusable per (Sim, width).
type rankOptState[I Ix] struct {
	next, weight             []I
	w, nxt, prv              []I
	alive, newAlive          []I
	pos, flags, cpos         []I
	cnext, cw                []I
	cdist, clast, dist, last []I
	coin                     []bool
	rec                      []splice[I]
	rounds                   [][]splice[I]
	base                     uint64
	phase                    int
	body                     func(lo, hi int)
	// serial reference scratch
	stack []I
	// charge-replay scratch: splice counts per contraction round
	roundCnts []int
}

const (
	optPhaseInit = iota
	optPhasePrv
	optPhaseAlive
	optPhaseCoin
	optPhaseFlags
	optPhaseSplice
	optPhasePos
	optPhaseCompact
	optPhaseExpand
	optPhaseReinstate
)

type rankOptKey[I Ix] struct{}

func rankOptOf[I Ix](s *pram.Sim) *rankOptState[I] {
	sc := s.Scratch()
	if v := sc.Aux(rankOptKey[I]{}); v != nil {
		return v.(*rankOptState[I])
	}
	st := &rankOptState[I]{}
	st.body = st.run
	sc.SetAux(rankOptKey[I]{}, st)
	return st
}

func (st *rankOptState[I]) run(lo, hi int) {
	switch st.phase {
	case optPhaseInit:
		for k := lo; k < hi; k++ {
			st.nxt[k] = st.next[k]
			st.prv[k] = -1
			if st.next[k] >= 0 {
				if st.weight == nil {
					st.w[k] = 1
				} else {
					st.w[k] = st.weight[k]
				}
			} else {
				st.w[k] = 0
			}
		}
	case optPhasePrv:
		for k := lo; k < hi; k++ {
			if st.nxt[k] >= 0 {
				st.prv[st.nxt[k]] = I(k)
			}
		}
	case optPhaseAlive:
		for k := lo; k < hi; k++ {
			st.alive[k] = I(k)
		}
	case optPhaseCoin:
		alive, coin, base := st.alive, st.coin, st.base
		for k := lo; k < hi; k++ {
			e := alive[k]
			coin[e] = splitmix(base^uint64(e))&1 == 0
		}
	case optPhaseFlags:
		alive, coin, prv, nxt, flags := st.alive, st.coin, st.prv, st.nxt, st.flags
		for k := lo; k < hi; k++ {
			e := alive[k]
			p := prv[e]
			if !coin[e] && p >= 0 && coin[p] && nxt[e] >= 0 {
				flags[k] = 1
			} else {
				flags[k] = 0
			}
		}
	case optPhaseSplice:
		for k := lo; k < hi; k++ {
			e := st.alive[k]
			if st.flags[k] == 1 {
				p, q := st.prv[e], st.nxt[e]
				st.rec[st.pos[k]] = splice[I]{elem: e, succ: q, w: st.w[e]}
				st.nxt[p] = q
				st.w[p] += st.w[e]
				st.prv[q] = p
			} else {
				st.newAlive[I(k)-st.pos[k]] = e
			}
		}
	case optPhasePos:
		for k := lo; k < hi; k++ {
			st.cpos[st.alive[k]] = I(k)
		}
	case optPhaseCompact:
		for k := lo; k < hi; k++ {
			e := st.alive[k]
			if st.nxt[e] >= 0 {
				st.cnext[k] = st.cpos[st.nxt[e]]
				st.cw[k] = st.w[e]
			} else {
				st.cnext[k] = -1
				st.cw[k] = 0
			}
		}
	case optPhaseExpand:
		for k := lo; k < hi; k++ {
			e := st.alive[k]
			st.dist[e] = st.cdist[k]
			st.last[e] = st.alive[st.clast[k]]
		}
	case optPhaseReinstate:
		for k := lo; k < hi; k++ {
			sp := st.rec[k]
			st.dist[sp.elem] = sp.w + st.dist[sp.succ]
			st.last[sp.elem] = st.last[sp.succ]
		}
	}
}

// RankOptWeightedIx is RankOptIx with link weights (nil means unit
// weights).
func RankOptWeightedIx[I Ix](s *pram.Sim, next []I, weight []I, seed uint64) (dist, last []I) {
	n := len(next)
	if n == 0 {
		return nil, nil
	}
	target := pram.ProcsFor(n) // contract to ~n/log n survivors
	if n <= 64 || s.Procs() == 1 {
		// Serial reference: follow chains with memoization via reverse
		// topological order (process in order of a stack-free two-pass).
		return rankSerial(s, next, weight)
	}
	if s.PreferSequential(n) {
		// Fused sequential route: one pointer-chase sweep for the values
		// plus a link-only replay of the random-mate contraction for the
		// charges, instead of the full multi-phase route over a dozen
		// arrays. The outputs are algorithm-independent (distance to and
		// identity of each terminal), so only the charge sequence — which
		// depends on the coin flips and the evolving alive set — needs the
		// structural replay.
		dist = pram.GrabNoClear[I](s, n)
		last = pram.GrabNoClear[I](s, n)
		chaseRank(s, next, weight, dist, last)
		chargeRankOpt(s, next, seed, false)
		return dist, last
	}

	st := rankOptOf[I](s)
	st.next, st.weight = next, weight
	st.w = pram.GrabNoClear[I](s, n)
	st.nxt = pram.GrabNoClear[I](s, n)
	st.prv = pram.GrabNoClear[I](s, n)
	st.phase = optPhaseInit
	s.ParallelForRange(n, st.body)
	// prv[j] = some predecessor of j. For lists it is unique; RankOptIx
	// requires list inputs (each element has at most one predecessor),
	// unlike RankIx which accepts in-forests.
	st.phase = optPhasePrv
	s.ParallelForRange(n, st.body)

	st.alive = pram.GrabNoClear[I](s, n)
	st.phase = optPhaseAlive
	s.ParallelForRange(n, st.body)
	st.rounds = st.rounds[:0]
	rng := seed | 1
	st.coin = pram.GrabNoClear[bool](s, n)
	outFlag := pram.GrabNoClear[I](s, n)
	// Each round splices out the elements whose coin is tails while the
	// predecessor's coin is heads — an independent set of expected size
	// m/4 among interior elements — and rebuilds the alive set with a
	// single scan-partition pass. When a round selects nothing, every
	// surviving list has (w.h.p.) length at most two and Wyllie finishes
	// the job; a round cap bounds the pathological case.
	for round := 0; len(st.alive) > target && round < 64; round++ {
		rng = splitmix(rng)
		st.base = rng
		m := len(st.alive)
		st.phase = optPhaseCoin
		s.ParallelForRange(m, st.body)
		st.flags = outFlag[:m]
		st.phase = optPhaseFlags
		s.ParallelForRange(m, st.body)
		pos, cnt := ScanIx(s, st.flags)
		if cnt == 0 {
			pram.Release(s, pos)
			break
		}
		st.pos = pos
		st.rec = pram.GrabNoClear[splice[I]](s, int(cnt))
		st.newAlive = pram.GrabNoClear[I](s, m-int(cnt))
		st.phase = optPhaseSplice
		s.ForCostRange(m, 3, st.body)
		st.rounds = append(st.rounds, st.rec)
		pram.Release(s, st.alive)
		pram.Release(s, pos)
		st.alive, st.newAlive = st.newAlive, nil
		st.pos, st.rec = nil, nil
	}

	// Wyllie on the survivors, in compacted index space.
	m := len(st.alive)
	st.cpos = pram.GrabNoClear[I](s, n) // original -> compact
	st.phase = optPhasePos
	s.ParallelForRange(m, st.body)
	st.cnext = pram.GrabNoClear[I](s, m)
	st.cw = pram.GrabNoClear[I](s, m)
	st.phase = optPhaseCompact
	s.ParallelForRange(m, st.body)
	st.cdist, st.clast = RankWeightedIx(s, st.cnext, st.cw)

	st.dist = pram.GrabNoClear[I](s, n)
	st.last = pram.GrabNoClear[I](s, n)
	st.phase = optPhaseExpand
	s.ParallelForRange(m, st.body)

	// Reinstate spliced elements in reverse round order: an element's
	// successor at splice time is ranked by a later round or by Wyllie.
	st.phase = optPhaseReinstate
	for r := len(st.rounds) - 1; r >= 0; r-- {
		st.rec = st.rounds[r]
		s.ForCostRange(len(st.rec), 2, st.body)
		pram.Release(s, st.rec)
		st.rounds[r] = nil
	}
	dist, last = st.dist, st.last
	pram.Release(s, st.w)
	pram.Release(s, st.nxt)
	pram.Release(s, st.prv)
	pram.Release(s, st.alive)
	pram.Release(s, st.coin)
	pram.Release(s, outFlag)
	pram.Release(s, st.cpos)
	pram.Release(s, st.cnext)
	pram.Release(s, st.cw)
	pram.Release(s, st.cdist)
	pram.Release(s, st.clast)
	st.next, st.weight, st.w, st.nxt, st.prv = nil, nil, nil, nil, nil
	st.alive, st.flags, st.coin, st.rec = nil, nil, nil, nil
	st.cpos, st.cnext, st.cw, st.cdist, st.clast = nil, nil, nil, nil, nil
	st.dist, st.last = nil, nil
	st.rounds = st.rounds[:0]
	return dist, last
}

// chaseRank fills dist/last by chasing each chain once — the shared
// engine of the serial reference and the fused Wyllie route. It charges
// nothing; callers account for it.
func chaseRank[I Ix](s *pram.Sim, next, weight, dist, last []I) {
	n := len(next)
	st := rankOptOf[I](s)
	done := pram.Grab[bool](s, n)
	stack := st.stack[:0]
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		j := i
		for !done[j] && next[j] >= 0 {
			stack = append(stack, I(j))
			j = int(next[j])
		}
		if next[j] < 0 && !done[j] {
			dist[j], last[j], done[j] = 0, I(j), true
		}
		for k := len(stack) - 1; k >= 0; k-- {
			e := stack[k]
			wv := I(1)
			if weight != nil {
				wv = weight[e]
			}
			dist[e] = wv + dist[next[e]]
			last[e] = last[next[e]]
			done[e] = true
		}
		stack = stack[:0]
	}
	st.stack = stack[:0]
	pram.Release(s, done)
}

// chargeRankOpt replays the exact simulated charge sequence of
// RankOptWeightedIx for the list next under the given seed, without
// computing any ranks: it re-runs the random-mate contraction on a
// link-only skeleton (successor, predecessor and the alive set — no
// weights, no rank arrays, no Wyllie buffers) because the number of
// contraction rounds and the number of elements spliced per round are
// data- and seed-dependent, and the charges follow them. The charges do
// not depend on the link weights. With consume set, next is scrambled
// in place as the round skeleton (saving one pass over it); otherwise it
// is read-only. It must mirror RankOptWeightedIx charge for charge.
func chargeRankOpt[I Ix](s *pram.Sim, next []I, seed uint64, consume bool) {
	n := len(next)
	if n == 0 {
		return
	}
	if n <= 64 || s.Procs() == 1 {
		s.Charge(int64(n), int64(n)) // the rankSerial Sequential(n) route
		return
	}
	target := pram.ProcsFor(n)
	p := s.Procs()
	charge := func(m, cost int) { // one Brent-scheduled phase of m cost-`cost` ops
		if m > 0 {
			s.Charge(int64(ceilDivInt(m, p)*cost), int64(m*cost))
		}
	}

	st := rankOptOf[I](s)
	nxt := next
	if !consume {
		nxt = pram.GrabNoClear[I](s, n)
		copy(nxt, next)
	}
	prv := pram.GrabNoClear[I](s, n)
	for i := range prv {
		prv[i] = -1
	}
	for i := 0; i < n; i++ {
		if next[i] >= 0 {
			prv[next[i]] = I(i)
		}
	}
	charge(n, 1) // init
	charge(n, 1) // prv scatter
	alive := pram.GrabNoClear[I](s, n)
	newAlive := pram.GrabNoClear[I](s, n)
	for i := range alive {
		alive[i] = I(i)
	}
	charge(n, 1) // alive init
	flags := pram.GrabNoClear[bool](s, n)
	cnts := st.roundCnts[:0]
	rng := seed | 1
	for round := 0; len(alive) > target && round < 64; round++ {
		rng = splitmix(rng)
		base := rng
		m := len(alive)
		charge(m, 1) // coin phase
		// Selection against the round-start links, exactly like the flags
		// phase: tails for e, heads for its predecessor.
		cnt := 0
		for k, e := range alive {
			pe := prv[e]
			f := splitmix(base^uint64(e))&1 != 0 && pe >= 0 &&
				splitmix(base^uint64(pe))&1 == 0 && nxt[e] >= 0
			flags[k] = f
			if f {
				cnt++
			}
		}
		charge(m, 1) // flags phase
		chargeScan(s, m, false)
		if cnt == 0 {
			break
		}
		out := 0
		for k, e := range alive {
			if flags[k] {
				pe, q := prv[e], nxt[e]
				nxt[pe] = q
				prv[q] = pe
			} else {
				newAlive[out] = e
				out++
			}
		}
		charge(m, 3) // splice phase
		cnts = append(cnts, cnt)
		alive, newAlive = newAlive[:out], alive[:cap(alive)]
	}
	m := len(alive)
	charge(m, 1) // compact position scatter
	charge(m, 1) // compact links
	chargeWyllie(s, m)
	charge(m, 1) // expand
	for r := len(cnts) - 1; r >= 0; r-- {
		charge(cnts[r], 2) // reinstate round
	}
	st.roundCnts = cnts[:0]
	if !consume {
		pram.Release(s, nxt)
	}
	pram.Release(s, prv)
	pram.Release(s, flags)
	pram.Release(s, alive)
	pram.Release(s, newAlive)
}

// rankSerial is the single-processor reference: O(n) by chasing each
// chain once.
func rankSerial[I Ix](s *pram.Sim, next []I, weight []I) (dist, last []I) {
	n := len(next)
	dist = pram.GrabNoClear[I](s, n)
	last = pram.GrabNoClear[I](s, n)
	s.Sequential(n, func() { chaseRank(s, next, weight, dist, last) })
	return dist, last
}

// ListPositionsIx ranks a single list of known head: it returns pos[i],
// the 0-based position of element i from head, and the list length.
// Elements not on the list get position -1.
func ListPositionsIx[I Ix](s *pram.Sim, next []I, head I, seed uint64) (pos []I, length I) {
	dist, last := RankOptIx(s, next, seed)
	n := len(next)
	length = dist[head] + 1
	pos = pram.GrabNoClear[I](s, n)
	tail := last[head]
	s.ParallelForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if last[i] == tail {
				pos[i] = length - 1 - dist[i]
			} else {
				pos[i] = -1
			}
		}
	})
	pram.Release(s, dist)
	pram.Release(s, last)
	return pos, length
}

// splitmix is the SplitMix64 mixing function, used for deterministic
// per-element coin flips.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
