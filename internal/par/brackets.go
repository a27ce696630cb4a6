package par

import "pathcover/internal/pram"

// MatchBracketsIx finds all matching pairs in a (not necessarily balanced)
// bracket sequence: open[i] reports whether position i holds an opening
// bracket. It returns match[i] = index of i's partner, or -1 for
// unmatched brackets. This is Lemma 5.1(3) of the paper and the engine
// behind Step 5 of the path-cover algorithm.
//
// The parallel algorithm is the classical block-decomposition scheme
// (Bar-On–Vishkin family), O(log n) time and O(n) work on the simulator:
//
//  1. Depths by prefix sums. A closing bracket at depth d matches the
//     last opening bracket at depth d+1 before it, so matching pairs
//     share a "level".
//  2. Each of the p blocks matches internally with a sequential stack
//     (ceil(n/p) time). A block's surviving brackets form a canonical
//     sequence )...)(...( whose closes and opens each occupy consecutive
//     levels — two "runs" described by O(1) integers.
//  3. A merge tree over the blocks determines, per tree node, how many
//     pairs (m) form between the top m surviving opens of its left group
//     and the top m surviving closes of its right group — a consecutive
//     level interval.
//  4. Every run walks up the merge tree, splitting off the consumed top
//     part of its level interval as a "chunk" per node. O(p log p) ⊆ O(n)
//     work, O(log p) time.
//  5. Chunks scatter (block, level) into per-node pair slots, and each
//     pair resolves its bracket indices by O(1) arithmetic into the
//     block-local survivor lists.
//
// Like the other hot-path primitives, the implementation keeps its phase
// bodies and bookkeeping in reusable per-Sim state: block-local survivor
// lists live in one flat arena buffer (block b owns [b*bs, (b+1)*bs)),
// and the walk-up chunks are four parallel integer arrays instead of a
// slice of structs, so steady-state matching allocates nothing.
func MatchBracketsIx[I Ix](s *pram.Sim, open []bool) []I {
	n := len(open)
	match := pram.GrabNoClear[I](s, n)
	nb := s.NumBlocks(n)
	st := bracketsOf[I](s)
	if nb <= 1 {
		// Single-block route: the sequential stack matcher, with the stack
		// cached in the per-Sim state so small-input serving allocates
		// nothing in steady state.
		s.Sequential(n, func() { st.stack = matchSerialStack(open, match, st.stack[:0]) })
		return match
	}
	if s.PreferSequential(n) {
		// Fused sequential route: the global stack matcher computes the
		// matching in one pass (matching is unique, so it coincides with
		// the block-decomposed result), and the merge-tree bookkeeping —
		// whose charge sequence depends on the per-block survivor runs —
		// is replayed on counters only.
		st.stack = matchSerialStack(open, match, st.stack[:0])
		chargeMatchBrackets[I](s, open)
		return match
	}
	st.open, st.match, st.n = open, match, n
	st.phase = brkPhaseInit
	s.ParallelForRange(n, st.body)

	// Phase 1: depths. depth[i] = depth after position i.
	st.w = pram.GrabNoClear[I](s, n)
	st.phase = brkPhaseDepthW
	s.ParallelForRange(n, st.body)
	st.depth = InclusiveScanIx(s, st.w)

	// Phase 2: block-local matching into the flat survivor arena.
	bs := s.BlockSize(n)
	st.bs = bs
	st.survO = pram.GrabNoClear[I](s, nb*bs) // surviving opens per block, ascending position
	st.survC = pram.GrabNoClear[I](s, nb*bs) // surviving closes per block, ascending position
	st.nO = pram.GrabNoClear[I](s, nb)
	st.nC = pram.GrabNoClear[I](s, nb)
	st.blkPhase = brkBlockLocal
	s.Blocks(n, st.blockBody)

	// Run descriptors: the level of an open at i is depth[i]; of a close,
	// depth[i]+1. Surviving closes occupy consecutive descending levels
	// from cTop; surviving opens consecutive ascending levels up to oTop.
	st.cTop = pram.GrabNoClear[I](s, nb)
	st.oLo = pram.GrabNoClear[I](s, nb)
	st.phase = brkPhaseTops
	s.ParallelForRange(nb, st.body)

	// Phase 3: merge tree (heap layout, p2 leaves).
	p2 := 1
	for p2 < nb {
		p2 <<= 1
	}
	st.p2 = p2
	size := 2 * p2
	st.oCnt = pram.GrabNoClear[I](s, size)
	st.cCnt = pram.GrabNoClear[I](s, size)
	st.mCnt = pram.GrabNoClear[I](s, size)
	st.splitD = pram.GrabNoClear[I](s, size)
	st.phase = brkPhaseLeaves
	s.ParallelForRange(p2, st.body)
	st.mCnt[0], st.splitD[0] = 0, 0 // root slot 0 is outside the heap but scanned below
	for lvl := p2 / 2; lvl >= 1; lvl /= 2 {
		st.lvl = lvl
		st.span = p2 / lvl // blocks covered per node at this level
		st.phase = brkPhaseUp
		s.ForCostRange(lvl, 2, st.body)
	}

	// Pair slot offsets per merge-tree node.
	pairOff, totalPairsI := ScanIx(s, st.mCnt)
	totalPairs := int(totalPairsI)
	st.pairOff = pairOff
	if totalPairs == 0 {
		st.release(s)
		return match
	}

	// Phase 4: run walk-up. Runs 2b (closes) and 2b+1 (opens).
	nRuns := 2 * nb
	st.runNode = pram.GrabNoClear[I](s, nRuns)
	st.runHi = pram.GrabNoClear[I](s, nRuns)
	st.runLo = pram.GrabNoClear[I](s, nRuns)
	st.runAlive = pram.GrabNoClear[bool](s, nRuns)
	st.phase = brkPhaseRuns
	s.ForCostRange(nb, 2, st.body)

	st.bufNode = pram.GrabNoClear[I](s, nRuns)
	st.bufLo = pram.GrabNoClear[I](s, nRuns)
	st.bufHi = pram.GrabNoClear[I](s, nRuns)
	st.emitted = pram.GrabNoClear[bool](s, nRuns)
	st.chNode, st.chLo, st.chHi, st.chRi = st.chNode[:0], st.chLo[:0], st.chHi[:0], st.chRi[:0]
	for lvl := p2; lvl > 1; lvl /= 2 {
		st.phase = brkPhaseEmit
		s.ForCostRange(nRuns, 3, st.body)
		idx := IndexPackIx[I](s, st.emitted)
		st.idx = idx
		st.chBase = len(st.chNode)
		grow := st.chBase + len(idx)
		st.chNode = ensureLen(st.chNode, grow)
		st.chLo = ensureLen(st.chLo, grow)
		st.chHi = ensureLen(st.chHi, grow)
		st.chRi = ensureLen(st.chRi, grow)
		st.phase = brkPhaseGather
		s.ParallelForRange(len(idx), st.body)
		pram.Release(s, idx)
		st.idx = nil
	}

	// Phase 5: scatter chunks into pair slots, then resolve each pair.
	nChunks := len(st.chNode)
	st.lens = pram.GrabNoClear[I](s, nChunks)
	st.phase = brkPhaseLens
	s.ParallelForRange(nChunks, st.body)
	st.owner, st.offset, st.items = DistributeIx(s, st.lens)
	st.pairOpen = pram.GrabNoClear[I](s, totalPairs)
	st.pairClose = pram.GrabNoClear[I](s, totalPairs)
	st.phase = brkPhaseScatter
	s.ForCostRange(st.items, 2, st.body)
	pram.Release(s, st.owner)
	pram.Release(s, st.offset)

	st.owner, st.offset, _ = DistributeIx(s, st.mCnt)
	st.phase = brkPhaseResolve
	s.ForCostRange(totalPairs, 3, st.body)
	pram.Release(s, st.owner)
	pram.Release(s, st.offset)
	st.owner, st.offset = nil, nil
	pram.Release(s, st.runNode)
	pram.Release(s, st.runHi)
	pram.Release(s, st.runLo)
	pram.Release(s, st.runAlive)
	pram.Release(s, st.bufNode)
	pram.Release(s, st.bufLo)
	pram.Release(s, st.bufHi)
	pram.Release(s, st.emitted)
	pram.Release(s, st.lens)
	pram.Release(s, st.pairOpen)
	pram.Release(s, st.pairClose)
	st.runNode, st.runHi, st.runLo, st.runAlive = nil, nil, nil, nil
	st.bufNode, st.bufLo, st.bufHi, st.emitted = nil, nil, nil, nil
	st.lens, st.pairOpen, st.pairClose = nil, nil, nil
	st.release(s)
	return match
}

// ensureLen grows a state-cached slice to length n, keeping contents up
// to the old length (steady state: the capacity stabilises and append
// never reallocates).
func ensureLen[I Ix](b []I, n int) []I {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]I, n, 2*n)
	copy(nb, b)
	return nb
}

// bracketState is the reusable per-(Sim, width) state of MatchBracketsIx.
type bracketState[I Ix] struct {
	open         []bool
	match        []I
	n, bs, p2    int
	w, depth     []I
	survO, survC []I
	nO, nC       []I
	cTop, oLo    []I
	oCnt, cCnt   []I
	mCnt, splitD []I
	pairOff      []I
	lvl, span    int

	runNode, runHi, runLo []I
	runAlive              []bool
	bufNode, bufLo, bufHi []I
	emitted               []bool
	chNode, chLo, chHi    []I
	chRi                  []I
	idx                   []I
	chBase                int

	lens, owner, offset []I
	items               int
	pairOpen, pairClose []I
	stack               []int // sequential-route scratch

	phase     int
	blkPhase  int
	body      func(lo, hi int)
	blockBody func(b, lo, hi int)
}

const (
	brkPhaseInit = iota
	brkPhaseDepthW
	brkPhaseTops
	brkPhaseLeaves
	brkPhaseUp
	brkPhaseRuns
	brkPhaseEmit
	brkPhaseGather
	brkPhaseLens
	brkPhaseScatter
	brkPhaseResolve
)

const brkBlockLocal = 0

type bracketsKey[I Ix] struct{}

func bracketsOf[I Ix](s *pram.Sim) *bracketState[I] {
	sc := s.Scratch()
	if v := sc.Aux(bracketsKey[I]{}); v != nil {
		return v.(*bracketState[I])
	}
	st := &bracketState[I]{}
	st.body = st.run
	st.blockBody = st.runBlock
	sc.SetAux(bracketsKey[I]{}, st)
	return st
}

// release returns the buffers shared by the early-exit and full paths.
func (st *bracketState[I]) release(s *pram.Sim) {
	pram.Release(s, st.w)
	pram.Release(s, st.depth)
	pram.Release(s, st.survO)
	pram.Release(s, st.survC)
	pram.Release(s, st.nO)
	pram.Release(s, st.nC)
	pram.Release(s, st.cTop)
	pram.Release(s, st.oLo)
	pram.Release(s, st.oCnt)
	pram.Release(s, st.cCnt)
	pram.Release(s, st.mCnt)
	pram.Release(s, st.splitD)
	pram.Release(s, st.pairOff)
	st.open, st.match, st.w, st.depth = nil, nil, nil, nil
	st.survO, st.survC, st.nO, st.nC = nil, nil, nil, nil
	st.cTop, st.oLo, st.oCnt, st.cCnt = nil, nil, nil, nil
	st.mCnt, st.splitD, st.pairOff = nil, nil, nil
}

func (st *bracketState[I]) runBlock(b, lo, hi int) {
	// Block-local matching with the survivor arena as the stack.
	base := b * st.bs
	nO, nC := 0, 0
	for i := lo; i < hi; i++ {
		if st.open[i] {
			st.survO[base+nO] = I(i)
			nO++
		} else if nO > 0 {
			nO--
			j := st.survO[base+nO]
			st.match[i], st.match[j] = j, I(i)
		} else {
			st.survC[base+nC] = I(i)
			nC++
		}
	}
	st.nO[b], st.nC[b] = I(nO), I(nC)
}

func (st *bracketState[I]) run(lo, hi int) {
	switch st.phase {
	case brkPhaseInit:
		match := st.match
		for i := lo; i < hi; i++ {
			match[i] = -1
		}
	case brkPhaseDepthW:
		open, w := st.open, st.w
		for i := lo; i < hi; i++ {
			if open[i] {
				w[i] = 1
			} else {
				w[i] = -1
			}
		}
	case brkPhaseTops:
		for i := lo; i < hi; i++ {
			if st.nC[i] > 0 {
				st.cTop[i] = st.depth[st.survC[i*st.bs]] + 1
			} else {
				st.cTop[i] = 0
			}
			if st.nO[i] > 0 {
				st.oLo[i] = st.depth[st.survO[i*st.bs]]
			} else {
				st.oLo[i] = 0
			}
		}
	case brkPhaseLeaves:
		for i := lo; i < hi; i++ {
			if i < len(st.nO) {
				st.oCnt[st.p2+i] = st.nO[i]
				st.cCnt[st.p2+i] = st.nC[i]
			} else {
				st.oCnt[st.p2+i] = 0
				st.cCnt[st.p2+i] = 0
			}
			st.mCnt[st.p2+i] = 0
		}
	case brkPhaseUp:
		for i := lo; i < hi; i++ {
			v := st.lvl + i
			l, r := 2*v, 2*v+1
			m := min(st.oCnt[l], st.cCnt[r])
			st.mCnt[v] = m
			st.oCnt[v] = st.oCnt[r] + st.oCnt[l] - m
			st.cCnt[v] = st.cCnt[l] + st.cCnt[r] - m
			boundary := (i*st.span + st.span/2) * st.bs // first position of the right group
			if boundary > st.n {
				boundary = st.n
			}
			if boundary == 0 {
				st.splitD[v] = 0
			} else {
				st.splitD[v] = st.depth[boundary-1]
			}
		}
	case brkPhaseRuns:
		for b := lo; b < hi; b++ {
			if c := st.nC[b]; c > 0 {
				st.runNode[2*b] = I(st.p2 + b)
				st.runHi[2*b] = st.cTop[b]
				st.runLo[2*b] = st.cTop[b] - c + 1
				st.runAlive[2*b] = true
			} else {
				st.runAlive[2*b] = false
			}
			if o := st.nO[b]; o > 0 {
				st.runNode[2*b+1] = I(st.p2 + b)
				st.runHi[2*b+1] = st.oLo[b] + o - 1
				st.runLo[2*b+1] = st.oLo[b]
				st.runAlive[2*b+1] = true
			} else {
				st.runAlive[2*b+1] = false
			}
		}
	case brkPhaseEmit:
		for ri := lo; ri < hi; ri++ {
			st.emitted[ri] = false
			if !st.runAlive[ri] {
				continue
			}
			v := st.runNode[ri]
			pv := v / 2
			st.runNode[ri] = pv
			isOpen := ri%2 == 1
			isLeftChild := v%2 == 0
			if st.mCnt[pv] == 0 || isOpen != isLeftChild {
				continue // opens are consumed from left groups, closes from right
			}
			t := st.splitD[pv] - st.mCnt[pv]
			if st.runHi[ri] <= t {
				continue
			}
			l := t + 1
			if l < st.runLo[ri] {
				l = st.runLo[ri]
			}
			st.bufNode[ri] = pv
			st.bufLo[ri] = l
			st.bufHi[ri] = st.runHi[ri]
			st.emitted[ri] = true
			st.runHi[ri] = l - 1
			if st.runHi[ri] < st.runLo[ri] {
				st.runAlive[ri] = false
			}
		}
	case brkPhaseGather:
		for i := lo; i < hi; i++ {
			ri := st.idx[i]
			k := st.chBase + i
			st.chNode[k] = st.bufNode[ri]
			st.chLo[k] = st.bufLo[ri]
			st.chHi[k] = st.bufHi[ri]
			st.chRi[k] = ri
		}
	case brkPhaseLens:
		for i := lo; i < hi; i++ {
			st.lens[i] = st.chHi[i] - st.chLo[i] + 1
		}
	case brkPhaseScatter:
		for i := lo; i < hi; i++ {
			k := st.owner[i]
			lev := st.chLo[k] + st.offset[i]
			node := st.chNode[k]
			slot := st.pairOff[node] + lev - (st.splitD[node] - st.mCnt[node] + 1)
			ri := st.chRi[k]
			if ri%2 == 1 { // open run
				st.pairOpen[slot] = ri / 2
			} else {
				st.pairClose[slot] = ri / 2
			}
		}
	case brkPhaseResolve:
		for i := lo; i < hi; i++ {
			v := st.owner[i]
			lev := st.splitD[v] - st.mCnt[v] + 1 + I(st.offset[i])
			bO, bC := st.pairOpen[i], st.pairClose[i]
			oi := st.survO[int(bO)*st.bs+int(lev-st.oLo[bO])]
			ci := st.survC[int(bC)*st.bs+int(st.cTop[bC]-lev)]
			st.match[oi], st.match[ci] = ci, oi
		}
	}
}

// chargeMatchBrackets replays the exact simulated charge sequence of
// the block-decomposed MatchBracketsIx without producing the matching:
// the per-block survivor runs, the merge tree and the run walk-up are
// re-derived on O(p)-sized counters (the canonical block form makes the
// survivor runs computable from running depths alone — cTop is the
// depth at block start, oLo the depth at block end minus the surviving
// opens), because the emitted chunk counts per level and the total pair
// count steer the charges. It must mirror MatchBracketsIx charge for
// charge.
func chargeMatchBrackets[I Ix](s *pram.Sim, open []bool) {
	n := len(open)
	p := s.Procs()
	charge := func(m, cost int) {
		if m > 0 {
			s.Charge(int64(ceilDivInt(m, p)*cost), int64(m*cost))
		}
	}
	nb := s.NumBlocks(n)
	bs := s.BlockSize(n)
	charge(n, 1)           // match init
	charge(n, 1)           // depth weights
	chargeScan(s, n, true) // depth scan
	charge(n, 1)           // block-local matching

	// Per-block canonical runs from one streaming pass.
	nO := pram.GrabNoClear[I](s, nb)
	nC := pram.GrabNoClear[I](s, nb)
	cTop := pram.GrabNoClear[I](s, nb)
	oLo := pram.GrabNoClear[I](s, nb)
	endD := pram.GrabNoClear[I](s, nb)
	depth := I(0)
	for b := 0; b < nb; b++ {
		hi := min((b+1)*bs, n)
		d0 := depth
		locO, closes := I(0), I(0)
		for i := b * bs; i < hi; i++ {
			if open[i] {
				locO++
				depth++
			} else {
				if locO > 0 {
					locO--
				} else {
					closes++
				}
				depth--
			}
		}
		nO[b], nC[b] = locO, closes
		endD[b] = depth
		if closes > 0 {
			cTop[b] = d0
		} else {
			cTop[b] = 0
		}
		if locO > 0 {
			oLo[b] = depth - locO + 1
		} else {
			oLo[b] = 0
		}
	}
	charge(nb, 1) // run descriptors (tops)

	// Merge tree.
	p2 := 1
	for p2 < nb {
		p2 <<= 1
	}
	size := 2 * p2
	oCnt := pram.GrabNoClear[I](s, size)
	cCnt := pram.GrabNoClear[I](s, size)
	mCnt := pram.GrabNoClear[I](s, size)
	splitD := pram.GrabNoClear[I](s, size)
	for i := 0; i < p2; i++ {
		if i < nb {
			oCnt[p2+i], cCnt[p2+i] = nO[i], nC[i]
		} else {
			oCnt[p2+i], cCnt[p2+i] = 0, 0
		}
		mCnt[p2+i] = 0
	}
	charge(p2, 1) // leaves
	mCnt[0], splitD[0] = 0, 0
	totalPairs := 0
	for lvl := p2 / 2; lvl >= 1; lvl /= 2 {
		span := p2 / lvl
		for i := 0; i < lvl; i++ {
			v := lvl + i
			l, r := 2*v, 2*v+1
			m := min(oCnt[l], cCnt[r])
			mCnt[v] = m
			totalPairs += int(m)
			oCnt[v] = oCnt[r] + oCnt[l] - m
			cCnt[v] = cCnt[l] + cCnt[r] - m
			boundary := (i*span + span/2) * bs
			if boundary > n {
				boundary = n
			}
			switch {
			case boundary == 0:
				splitD[v] = 0
			case boundary == n:
				splitD[v] = endD[nb-1]
			default:
				splitD[v] = endD[boundary/bs-1]
			}
		}
		charge(lvl, 2) // up-sweep
	}
	chargeScan(s, size, false) // pair slot offsets
	release := func() {
		pram.Release(s, nO)
		pram.Release(s, nC)
		pram.Release(s, cTop)
		pram.Release(s, oLo)
		pram.Release(s, endD)
		pram.Release(s, oCnt)
		pram.Release(s, cCnt)
		pram.Release(s, mCnt)
		pram.Release(s, splitD)
	}
	if totalPairs == 0 {
		release()
		return
	}

	// Run walk-up: count the chunks each level emits and their lengths.
	nRuns := 2 * nb
	runNode := pram.GrabNoClear[I](s, nRuns)
	runHi := pram.GrabNoClear[I](s, nRuns)
	runLo := pram.GrabNoClear[I](s, nRuns)
	runAlive := pram.GrabNoClear[bool](s, nRuns)
	for b := 0; b < nb; b++ {
		if c := nC[b]; c > 0 {
			runNode[2*b] = I(p2 + b)
			runHi[2*b] = cTop[b]
			runLo[2*b] = cTop[b] - c + 1
			runAlive[2*b] = true
		} else {
			runAlive[2*b] = false
		}
		if o := nO[b]; o > 0 {
			runNode[2*b+1] = I(p2 + b)
			runHi[2*b+1] = oLo[b] + o - 1
			runLo[2*b+1] = oLo[b]
			runAlive[2*b+1] = true
		} else {
			runAlive[2*b+1] = false
		}
	}
	charge(nb, 2) // runs init
	nChunks, items := 0, 0
	for lvl := p2; lvl > 1; lvl /= 2 {
		charge(nRuns, 3) // emit
		emitted := 0
		for ri := 0; ri < nRuns; ri++ {
			if !runAlive[ri] {
				continue
			}
			v := runNode[ri]
			pv := v / 2
			runNode[ri] = pv
			isOpen := ri%2 == 1
			isLeftChild := v%2 == 0
			if mCnt[pv] == 0 || isOpen != isLeftChild {
				continue
			}
			t := splitD[pv] - mCnt[pv]
			if runHi[ri] <= t {
				continue
			}
			l := t + 1
			if l < runLo[ri] {
				l = runLo[ri]
			}
			emitted++
			items += int(runHi[ri] - l + 1)
			runHi[ri] = l - 1
			if runHi[ri] < runLo[ri] {
				runAlive[ri] = false
			}
		}
		charge(nRuns, 1)            // emitted IndexPack flags
		chargeScan(s, nRuns, false) // emitted IndexPack scan
		charge(nRuns, 1)            // emitted IndexPack scatter
		charge(emitted, 1)          // chunk gather (skipped when empty)
		nChunks += emitted
	}
	pram.Release(s, runNode)
	pram.Release(s, runHi)
	pram.Release(s, runLo)
	pram.Release(s, runAlive)

	// Chunk scatter into pair slots, then per-pair resolution.
	charge(nChunks, 1)            // chunk lengths
	chargeScan(s, nChunks, false) // Distribute(lens): starts scan
	charge(items, 1)              // heads fill
	charge(nChunks, 1)            // head scatter
	chargeScan(s, items, true)    // owner max-scan
	charge(items, 1)              // offsets
	charge(items, 2)              // pair scatter
	chargeScan(s, size, false)    // Distribute(mCnt): starts scan
	charge(totalPairs, 1)         // heads fill
	charge(size, 1)               // head scatter
	chargeScan(s, totalPairs, true)
	charge(totalPairs, 1) // offsets
	charge(totalPairs, 3) // resolve
	release()
}

// matchSerial is the sequential stack matcher, used for single-block
// inputs and as the differential-testing reference.
func matchSerial[I Ix](open []bool, match []I) {
	matchSerialStack(open, match, nil)
}

// matchSerialStack is matchSerial over a caller-provided stack buffer,
// returned (possibly grown) for reuse.
func matchSerialStack[I Ix](open []bool, match []I, stack []int) []int {
	for i := range open {
		if open[i] {
			match[i] = -1
			stack = append(stack, i)
		} else if len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			match[i], match[j] = I(j), I(i)
		} else {
			match[i] = -1
		}
	}
	return stack[:0]
}
