package core

import (
	"strings"

	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// Kind identifies a bracket. Square brackets build the bridge structure
// of the path trees; round brackets attach insert and dummy vertices.
// The two families are matched independently (paper §4).
type Kind uint8

const (
	KSqOpenP  Kind = iota // "[" — the emitting vertex seeks a parent
	KSqCloseR             // "]" — right-child slot of a bridge vertex
	KSqCloseL             // "]" — left-child slot of a bridge vertex
	KRdOpenL              // "(" — left-child slot
	KRdOpenR              // "(" — right-child slot (a dummy's only slot)
	KRdCloseP             // ")" — the emitting vertex seeks a parent
)

// IsSquare reports whether the kind belongs to the square family.
func (k Kind) IsSquare() bool { return k <= KSqCloseL }

// IsOpen reports whether the kind is an opening bracket of its family.
func (k Kind) IsOpen() bool {
	return k == KSqOpenP || k == KRdOpenL || k == KRdOpenR
}

// Rune returns the display character.
func (k Kind) Rune() byte {
	switch k {
	case KSqOpenP:
		return '['
	case KSqCloseR, KSqCloseL:
		return ']'
	case KRdOpenL, KRdOpenR:
		return '('
	default:
		return ')'
	}
}

// BracketSeqIx is the sequence B(R) of Step 4 in struct-of-arrays form,
// generic over the index width (see par.Ix). Vert[i] is the emitting
// vertex (>= NumVertices for dummies).
type BracketSeqIx[I par.Ix] struct {
	Vert []I
	Kind []Kind
	// EffDummies is the number of dummy vertices actually emitted
	// (0 when the generator ran in the paper's pre-§4 form without
	// dummies, as in Fig. 10).
	EffDummies int
}

// Len returns the number of brackets.
func (bs *BracketSeqIx[I]) Len() int { return len(bs.Vert) }

// Release returns the sequence's slices to the Sim's arena.
func (bs *BracketSeqIx[I]) Release(s *pram.Sim) {
	pram.Release(s, bs.Vert)
	pram.Release(s, bs.Kind)
	bs.Vert, bs.Kind = nil, nil
}

// String renders the bare bracket characters.
func (bs *BracketSeqIx[I]) String() string {
	var sb strings.Builder
	for _, k := range bs.Kind {
		sb.WriteByte(k.Rune())
	}
	return sb.String()
}

// Annotated renders the sequence with the emitting vertex before each
// bracket, e.g. "a[ a( a( b) ...", using the provided namer.
func (bs *BracketSeqIx[I]) Annotated(name func(id int) string) string {
	var sb strings.Builder
	for i := range bs.Vert {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(name(int(bs.Vert[i])))
		sb.WriteByte(bs.Kind[i].Rune())
	}
	return sb.String()
}

// genBracketsIx emits B(R) (paper Step 4). The sequence is the
// concatenation, over the leaves of Tblr in left-to-right order, of
//
//	primary leaf x:            x[ x( x(
//	block of active 1-node u:  (]] [)^NB  )^NI  )^ND  (^ND  (()^NI
//
// where a block sits at the leaf-rank interval of u's right-child bundle
// (the right subtree's leaves are exactly the last leaves of u's
// subtree, so the recursive definition B(u) = B(v)·block(u) linearizes
// to leaf-rank order). Offsets come from one prefix sum; every bracket
// is then decoded independently in O(1).
func genBracketsIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], red *ReductionIx[I], withDummies bool) *BracketSeqIx[I] {
	n := red.NumVertices
	unitLen := pram.Grab[I](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x := red.VertAt[r]
			u := red.Owner[x]
			if u < 0 {
				unitLen[r] = 3
				continue
			}
			if I(r) == red.Start[b.Right[u]] {
				nd := I(0)
				if withDummies {
					nd = red.ND[u]
				}
				unitLen[r] = 3*red.NB[u] + 3*red.NI[u] + 2*nd
			}
		}
	})
	owner, off, total := par.DistributeIx(s, unitLen)
	bs := &BracketSeqIx[I]{
		Vert: pram.GrabNoClear[I](s, total),
		Kind: pram.GrabNoClear[Kind](s, total),
	}
	if withDummies {
		bs.EffDummies = red.TotalDummies
	}
	s.ForCostRange(total, 2, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			decodeBracket(bs, red, b, owner[i], off[i], i, withDummies)
		}
	})
	pram.Release(s, unitLen)
	pram.Release(s, owner)
	pram.Release(s, off)
	return bs
}

// decodeBracket writes bracket i of the sequence, which sits at offset j
// of the unit owned by leaf rank r.
func decodeBracket[I par.Ix](bs *BracketSeqIx[I], red *ReductionIx[I], b *cotree.BinIx[I], r, j I, i int, withDummies bool) {
	x := red.VertAt[r]
	u := red.Owner[x]
	if u < 0 { // primary leaf
		bs.Vert[i] = x
		switch j {
		case 0:
			bs.Kind[i] = KSqOpenP
		case 1:
			bs.Kind[i] = KRdOpenL
		default:
			bs.Kind[i] = KRdOpenR
		}
		return
	}
	nb, ni := red.NB[u], red.NI[u]
	nd := I(0)
	if withDummies {
		nd = red.ND[u]
	}
	start := red.Start[b.Right[u]]
	n := I(red.NumVertices)
	switch {
	case j < 3*nb: // bridge triple ] ] [
		bv := red.VertAt[start+j/3]
		bs.Vert[i] = bv
		switch j % 3 {
		case 0:
			bs.Kind[i] = KSqCloseR
		case 1:
			bs.Kind[i] = KSqCloseL
		default:
			bs.Kind[i] = KSqOpenP
		}
	case j < 3*nb+ni: // insert parent brackets )
		t := red.VertAt[start+nb+(j-3*nb)]
		bs.Vert[i] = t
		bs.Kind[i] = KRdCloseP
	case j < 3*nb+ni+nd: // dummy parent brackets )
		d := red.DummyBase[u] + (j - 3*nb - ni)
		bs.Vert[i] = n + d
		bs.Kind[i] = KRdCloseP
	case j < 3*nb+ni+2*nd: // dummy child slots (
		d := red.DummyBase[u] + (j - 3*nb - ni - nd)
		bs.Vert[i] = n + d
		bs.Kind[i] = KRdOpenR
	default: // insert child slots ( (
		j2 := j - 3*nb - ni - 2*nd
		t := red.VertAt[start+nb+j2/2]
		bs.Vert[i] = t
		if j2%2 == 0 {
			bs.Kind[i] = KRdOpenL
		} else {
			bs.Kind[i] = KRdOpenR
		}
	}
}
