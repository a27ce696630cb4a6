package par

import "pathcover/internal/pram"

// PackIx returns the elements of in whose keep flag is set, preserving
// order (stable stream compaction), with index arrays of width I.
// O(log n) time, O(n) work via one scan and one scatter.
func PackIx[I Ix, T any](s *pram.Sim, in []T, keep []bool) []T {
	idx := IndexPackIx[I](s, keep)
	out := pram.GrabNoClear[T](s, len(idx))
	s.ParallelFor(len(idx), func(i int) { out[i] = in[idx[i]] })
	pram.Release(s, idx)
	return out
}

// IndexPackIx returns, in increasing order, the indices i with keep[i]
// set.
func IndexPackIx[I Ix](s *pram.Sim, keep []bool) []I {
	n := len(keep)
	if n > 0 && s.PreferSequential(n) {
		// Fused sequential route: one pass to count, one to fill, versus
		// the flags/scan/scatter phase chain. Charges replayed exactly.
		total := 0
		for _, k := range keep {
			if k {
				total++
			}
		}
		out := pram.GrabNoClear[I](s, total)
		j := 0
		for i, k := range keep {
			if k {
				out[j] = I(i)
				j++
			}
		}
		p := s.Procs()
		s.Charge(int64(ceilDivInt(n, p)), int64(n)) // flags phase
		chargeScan(s, n, false)                     // position scan
		s.Charge(int64(ceilDivInt(n, p)), int64(n)) // scatter phase
		return out
	}
	st := packStateOf[I](s)
	st.keep = keep
	st.flags = pram.GrabNoClear[I](s, n)
	st.phase = packPhaseFlags
	s.ParallelForRange(n, st.body)
	pos, total := ScanIx(s, st.flags)
	st.pos = pos
	st.out = pram.GrabNoClear[I](s, int(total))
	st.phase = packPhaseScatter
	s.ParallelForRange(n, st.body)
	out := st.out
	pram.Release(s, st.flags)
	pram.Release(s, pos)
	st.keep, st.flags, st.pos, st.out = nil, nil, nil, nil
	return out
}

// packState keeps the phase bodies of IndexPackIx reusable per (Sim,
// width).
type packState[I Ix] struct {
	keep            []bool
	flags, pos, out []I
	phase           int
	body            func(lo, hi int)
}

const (
	packPhaseFlags = iota
	packPhaseScatter
)

type packKey[I Ix] struct{}

func packStateOf[I Ix](s *pram.Sim) *packState[I] {
	sc := s.Scratch()
	if v := sc.Aux(packKey[I]{}); v != nil {
		return v.(*packState[I])
	}
	st := &packState[I]{}
	st.body = st.run
	sc.SetAux(packKey[I]{}, st)
	return st
}

func (st *packState[I]) run(lo, hi int) {
	switch st.phase {
	case packPhaseFlags:
		keep, flags := st.keep, st.flags
		for i := lo; i < hi; i++ {
			if keep[i] {
				flags[i] = 1
			} else {
				flags[i] = 0
			}
		}
	case packPhaseScatter:
		keep, pos, out := st.keep, st.pos, st.out
		for i := lo; i < hi; i++ {
			if keep[i] {
				out[pos[i]] = I(i)
			}
		}
	}
}

// DistributeIx expands variable-length segments: given segment lengths,
// it returns (owner, offset, total) where for each item t in [0, total)
// of the concatenation, owner[t] is the segment it belongs to and
// offset[t] its position within that segment.
//
// This is the scatter-heads-then-max-scan idiom: the head position of
// each segment receives the segment id, and an inclusive prefix maximum
// broadcasts ids across items — O(log n) time, O(total + segments) work,
// EREW.
func DistributeIx[I Ix](s *pram.Sim, lengths []I) (owner, offset []I, total int) {
	nseg := len(lengths)
	// The starts scan runs first either way (it auto-fuses below the
	// cutover) and yields the total the route decision needs, so no
	// extra uncharged sweep over lengths is ever paid.
	starts, totI := ScanIx(s, lengths)
	tot := int(totI)
	if s.PreferSequential(tot + nseg) {
		// Fused sequential route for the remaining four phases: emit each
		// segment's run directly, replaying their exact charges.
		pram.Release(s, starts)
		owner = pram.GrabNoClear[I](s, tot)
		offset = pram.GrabNoClear[I](s, tot)
		t := 0
		for seg, l := range lengths {
			for j := I(0); j < l; j++ {
				owner[t] = I(seg)
				offset[t] = j
				t++
			}
		}
		p := s.Procs()
		if tot > 0 {
			s.Charge(int64(ceilDivInt(tot, p)), int64(tot)) // heads fill
		}
		if nseg > 0 {
			s.Charge(int64(ceilDivInt(nseg, p)), int64(nseg)) // head scatter
		}
		chargeScan(s, tot, true) // owner max-scan
		if tot > 0 {
			s.Charge(int64(ceilDivInt(tot, p)), int64(tot)) // offsets
		}
		return owner, offset, tot
	}
	st := distStateOf[I](s)
	st.lengths = lengths
	st.starts = starts
	st.heads = pram.GrabNoClear[I](s, tot)
	st.phase = distPhaseFill
	s.ParallelForRange(tot, st.body)
	st.phase = distPhaseHeads
	s.ParallelForRange(nseg, st.body)
	owner = MaxScanIx(s, st.heads)
	st.owner = owner
	st.offset = pram.GrabNoClear[I](s, tot)
	st.phase = distPhaseOffsets
	s.ParallelForRange(tot, st.body)
	offset = st.offset
	pram.Release(s, st.heads)
	pram.Release(s, starts)
	st.lengths, st.starts, st.heads, st.owner, st.offset = nil, nil, nil, nil, nil
	return owner, offset, tot
}

type distState[I Ix] struct {
	lengths, starts, heads []I
	owner, offset          []I
	phase                  int
	body                   func(lo, hi int)
}

const (
	distPhaseFill = iota
	distPhaseHeads
	distPhaseOffsets
)

type distKey[I Ix] struct{}

func distStateOf[I Ix](s *pram.Sim) *distState[I] {
	sc := s.Scratch()
	if v := sc.Aux(distKey[I]{}); v != nil {
		return v.(*distState[I])
	}
	st := &distState[I]{}
	st.body = st.run
	sc.SetAux(distKey[I]{}, st)
	return st
}

func (st *distState[I]) run(lo, hi int) {
	switch st.phase {
	case distPhaseFill:
		heads := st.heads
		sentinel := MinIx[I]()
		for i := lo; i < hi; i++ {
			heads[i] = sentinel
		}
	case distPhaseHeads:
		for i := lo; i < hi; i++ {
			if st.lengths[i] > 0 {
				st.heads[st.starts[i]] = I(i)
			}
		}
	case distPhaseOffsets:
		starts, owner, offset := st.starts, st.owner, st.offset
		for i := lo; i < hi; i++ {
			offset[i] = I(i) - starts[owner[i]]
		}
	}
}
