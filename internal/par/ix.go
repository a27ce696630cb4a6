package par

import "unsafe"

// Ix constrains the element type of the index-carrying arrays of the
// primitives: the values stored are vertex ids, node ids, tour
// positions, ranks and counts — all bounded by a small constant
// multiple of the input size — so a narrow representation halves
// (int32) or quarters (int16) the bytes every bandwidth-bound phase
// streams compared with a machine word.
//
// Width rule: every index-carrying primitive is a width-generic *Ix
// function or type, instantiated at int16 for the serving size class
// and at int32 otherwise. Callers must guarantee that every value a
// primitive stores fits I — for the path-cover pipeline that is ~10n
// (tour items of the dummy-augmented forest, bracket positions), so
// internal/core picks the width from n and rejects inputs past the
// int32 bound; nothing is ever silently truncated. The simulated
// time/work accounting is width-blind: both instantiations charge
// identical costs.
type Ix interface {
	~int16 | ~int32
}

// MinIx returns the minimum value of I, the sentinel of the prefix-max
// primitives (the generic counterpart of math.MinInt).
func MinIx[I Ix]() I {
	var one I = 1
	return ^I(0) << (8*unsafe.Sizeof(one) - 1)
}
