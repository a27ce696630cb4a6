package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"

	"pathcover/internal/canon"
	"pathcover/internal/cotree"
	"pathcover/internal/workload"
)

// item is one graph presentation exactly as it goes on the wire: the
// JSON of a daemon graph spec, {"cotree": ...} or {"n": ..., "edges":
// ...}. Answers are verified against a graph parsed from these bytes.
type item struct {
	kind workload.Kind
	n    int
	spec []byte
}

// request is one HTTP call: a /cover of one item or a /batch of several.
type request struct {
	path  string
	body  []byte
	items []int // indices into inputs.items, in body order
}

// graphs is the number of graphs the request asks about.
func (r request) graphs() int { return len(r.items) }

// inputs is everything a run sends, fixed by (workload, seed, seconds).
type inputs struct {
	items  []item
	warm   []request // set-up warm-up pass, untimed
	open   []request // open-loop phase
	closed []request // closed-loop phase
}

// sizeQuantile maps u in [0,1) through the inverse CDF of
// workload.SizeServing over bucket exponents [minLg, maxLg]: 70% of the
// mass spread evenly over the buckets up to 2^11, 25% over the buckets
// above it up to 2^15, 5% over every bucket, and uniform within a
// bucket. It is the same distribution workload.RequestsClass draws
// from, written as a monotone map so sizes can be stratified.
func sizeQuantile(u float64, minLg, maxLg int) int {
	smallMax, midMax := min(11, maxLg), min(15, maxLg)
	mass := make([]float64, maxLg+1)
	for lg := minLg; lg <= maxLg; lg++ {
		mass[lg] += 0.05 / float64(maxLg-minLg+1)
		switch {
		case lg <= smallMax:
			mass[lg] += 0.70 / float64(smallMax-minLg+1)
		case lg <= midMax:
			mass[lg] += 0.25 / float64(midMax-smallMax)
		}
	}
	if midMax <= smallMax {
		// No mid band: its 25% falls back onto every bucket, as in
		// workload.drawLg.
		for lg := minLg; lg <= maxLg; lg++ {
			mass[lg] += 0.25 / float64(maxLg-minLg+1)
		}
	}
	for lg := minLg; lg <= maxLg; lg++ {
		if u < mass[lg] || lg == maxLg {
			frac := min(u/mass[lg], 1-1e-12)
			return 1<<lg + int(frac*float64(int(1)<<lg))
		}
		u -= mass[lg]
	}
	panic("unreachable")
}

// sized is one graph to generate: its vertex count and cotree shape.
type sized struct {
	n     int
	shape workload.Shape
}

// orderWindow is the window within which stratified draws keep a
// representative mix.
const orderWindow = 10

// blockedOrder returns a random order of the strata 0..count-1 in
// which every run of orderWindow consecutive positions holds one
// stratum from each tenth of the range, so the largest draws never
// bunch up by chance and the queueing they cause is about the same
// from seed to seed. With descending set, each run is sorted largest
// first instead of shuffled.
func blockedOrder(rng *rand.Rand, count int, descending bool) []int {
	blocks := (count + orderWindow - 1) / orderWindow
	byBlock := make([][]int, blocks)
	for i := 0; i < count; i++ {
		byBlock[i%blocks] = append(byBlock[i%blocks], i)
	}
	out := make([]int, 0, count)
	for _, b := range rng.Perm(blocks) {
		blk := byBlock[b]
		if descending {
			sort.Sort(sort.Reverse(sort.IntSlice(blk)))
		} else {
			rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		}
		out = append(out, blk...)
	}
	return out
}

// stratifiedSizes draws count graphs from the SizeServing class with one
// draw per 1/count quantile stratum, the cotree shapes cycling along
// the strata so every size band holds every shape, in blockedOrder.
// The multiset of sizes is then nearly the same for every seed, so
// run-to-run spread comes from the graphs and their order rather than
// from how many huge graphs a seed happened to draw. order is a
// blockedOrder of the strata; jitter places each draw within its
// stratum, and nil puts it at the stratum's midpoint.
func stratifiedSizes(order []int, jitter *rand.Rand, minLg, maxLg int) []sized {
	count := len(order)
	out := make([]sized, 0, count)
	for _, i := range order {
		u := 0.5
		if jitter != nil {
			u = jitter.Float64()
		}
		out = append(out, sized{
			n:     sizeQuantile((float64(i)+u)/float64(count), minLg, maxLg),
			shape: workload.Shape(i % 3),
		})
	}
	return out
}

func cotreeSpec(t *cotree.Tree) []byte {
	b, err := json.Marshal(struct {
		Cotree string `json:"cotree"`
	}{t.String()})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

func edgeSpec(n int, edges [][2]int) []byte {
	b, err := json.Marshal(struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}{n, edges})
	if err != nil {
		panic(err)
	}
	return b
}

// distinctTrees builds one random cotree per entry, re-drawing any whose
// canonical hash repeats an earlier one, so no two trees are isomorphic.
// Balanced and caterpillar cotrees of a given size come in only two
// forms, so a re-draw is an unconstrained (Mixed) cotree of the same
// size, and only when even those keep colliding (tiny sizes) does the
// size move up. The first draws are built in parallel from seeds taken
// in order, so the result does not depend on scheduling.
func distinctTrees(rng *rand.Rand, sizes []sized, seen map[canon.Hash]bool) []*cotree.Tree {
	seeds := make([]uint64, len(sizes))
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	out := make([]*cotree.Tree, len(sizes))
	hashes := make([]canon.Hash, len(sizes))
	parallel(len(sizes), runtime.NumCPU(), func(i int) {
		out[i] = workload.Random(seeds[i], sizes[i].n, sizes[i].shape)
		hashes[i] = canon.Canonicalize(out[i]).Hash
	})
	for i, s := range sizes {
		for try := 1; seen[hashes[i]]; try++ {
			out[i] = workload.Random(rng.Uint64(), s.n+try/8, workload.Mixed)
			hashes[i] = canon.Canonicalize(out[i]).Hash
		}
		seen[hashes[i]] = true
	}
	return out
}

// cotreeSpecs renders the trees' wire specs in parallel.
func cotreeSpecs(trees []*cotree.Tree) [][]byte {
	out := make([][]byte, len(trees))
	parallel(len(trees), runtime.NumCPU(), func(i int) { out[i] = cotreeSpec(trees[i]) })
	return out
}

// uniqueCotree: every request a distinct cograph, so the cache never
// hits and the solve pipeline does the work. The seed picks every
// graph; the sizes, shapes and their order are the same for every
// seed. Each run of ten requests (a second of the open loop) goes
// largest first. A shard solves one graph at a time, so a 30k-vertex
// solve delays the next few requests; in this order they are the
// next-largest ones, already above the median, so p50 and tail_ms
// measure service under load rather than where a seed happened to
// put the big graphs. In random order that placement moved p50 by a
// quarter from seed to seed, and amplified host slowdowns into 60%.
func genUniqueCotree(seed uint64, nOpen, nClosed int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x0c07))
	in := &inputs{}
	seen := map[canon.Hash]bool{}
	phase := func(count int) []request {
		var reqs []request
		order := blockedOrder(rand.New(rand.NewPCG(0x5c4ed, uint64(count))), count, true)
		trees := distinctTrees(rng, stratifiedSizes(order, nil, 7, 14), seen)
		for i, spec := range cotreeSpecs(trees) {
			idx := len(in.items)
			in.items = append(in.items, item{kind: workload.KindCograph, n: trees[i].NumVertices(), spec: spec})
			reqs = append(reqs, request{path: "/cover", body: spec, items: []int{idx}})
		}
		return reqs
	}
	in.warm = phase(uniqueWarm)
	in.open = phase(nOpen)
	in.closed = phase(nClosed)
	return in
}

// uniqueWarm is how many graphs, distinct from every timed one, warm a
// unique-cotree stack's connections and shard arenas during set-up.
const uniqueWarm = 10

// Repeat-gateway catalog shape: zipfBases base cographs, each under
// zipfVariants presentations (the original and relabelled twins), drawn
// Zipf(zipfS) by rank.
const (
	zipfBases    = 64
	zipfVariants = 3
	zipfS        = 1.1
)

// rankOrder fixes which size stratum each Zipf rank gets, the same for
// every seed: with 64 bases the head rank alone draws about a fifth of
// the traffic, so letting the seed choose its size would make the
// seed, not the system, decide the figures.
func rankOrder() []int {
	return rand.New(rand.NewPCG(0x7a1f, 0x64)).Perm(zipfBases)
}

// repeatGateway: a small catalog of cographs under several
// presentations each, re-queried Zipf-style, so nearly every timed
// request is a cache hit served by a relabelling remap.
func genRepeatGateway(seed uint64, nOpen, nClosed int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x2e9e))
	in := &inputs{}
	// Each rank's size is its stratum's midpoint: with this few bases a
	// jitter within the stratum would still move the figures by seed.
	sizes := make([]sized, zipfBases)
	for rank, s := range rankOrder() {
		sizes[rank] = sized{
			n:     sizeQuantile((float64(s)+0.5)/zipfBases, 7, 14),
			shape: workload.Shape(s % 3),
		}
	}
	trees := distinctTrees(rng, sizes, map[canon.Hash]bool{})
	for _, t := range trees {
		for v := 0; v < zipfVariants; v++ {
			p := t
			if v > 0 {
				p = cotree.Permute(t, rng.Uint64()|1)
			}
			idx := len(in.items)
			spec := cotreeSpec(p)
			in.items = append(in.items, item{kind: workload.KindCograph, n: p.NumVertices(), spec: spec})
			in.warm = append(in.warm, request{path: "/cover", body: spec, items: []int{idx}})
		}
	}
	cum := make([]float64, zipfBases)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), zipfS)
		cum[k] = total
	}
	// Stratified like the sizes: one draw per 1/count quantile of the
	// Zipf distribution, so each rank is asked about its expected number
	// of times give or take one. The draws are then sorted by size and
	// sent in blockedOrder, so every ten consecutive requests hold one
	// from each size decile. Ranks and order are the same for every
	// seed; the seed picks the graphs and which presentation each
	// request sends.
	draw := func(count int) []request {
		fixed := rand.New(rand.NewPCG(0x0de7, uint64(count)))
		ranks := make([]int, count)
		for i := range ranks {
			u := (float64(i) + fixed.Float64()) / float64(count) * total
			for ranks[i] < zipfBases-1 && cum[ranks[i]] < u {
				ranks[i]++
			}
		}
		sort.SliceStable(ranks, func(i, j int) bool { return sizes[ranks[i]].n < sizes[ranks[j]].n })
		reqs := make([]request, 0, count)
		for _, i := range blockedOrder(fixed, count, false) {
			reqs = append(reqs, in.warm[ranks[i]*zipfVariants+rng.IntN(zipfVariants)])
		}
		return reqs
	}
	in.open = draw(nOpen)
	in.closed = draw(nClosed)
	return in
}

// batchSize is the number of graphs per /batch request.
const batchSize = 32

// maxEdgeN caps edge-list graphs, as workload.MixedRequestsClass does:
// cograph recognition over an edge list keeps a Θ(n²) bit matrix.
const maxEdgeN = 4096

// batchEdges: /batch requests mixing cotrees (3/5) with edge lists of
// trees, sparse graphs and near-cographs (2/5). Every catalog entry
// appears exactly twice in the stream, so cotree entries fill the
// cache once and hit it once. One more batch of entries found nowhere
// in the stream is the set-up warm-up. Each entry's kind and size and
// the stream's order are the same for every seed, so every batch holds
// the same mix whatever the seed; the seed picks the graphs.
func genBatchEdges(seed uint64, nBatches int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0xba7c))
	fixed := rand.New(rand.NewPCG(0xba7c, uint64(nBatches)))
	in := &inputs{}
	distinct := batchSize + nBatches*batchSize/2
	// Kinds in fixed proportion per ten entries: 6 cotrees, 2 trees,
	// 1 sparse, 1 near-cograph.
	kinds := make([]workload.Kind, distinct)
	nCo := 0
	for i := range kinds {
		switch i % 10 {
		case 6, 7:
			kinds[i] = workload.KindTree
		case 8:
			kinds[i] = workload.KindSparse
		case 9:
			kinds[i] = workload.KindNearCograph
		default:
			kinds[i] = workload.KindCograph
			nCo++
		}
	}
	fixed.Shuffle(distinct, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	coSizes := stratifiedSizes(blockedOrder(fixed, nCo, false), nil, 5, 11)
	edgeSizes := stratifiedSizes(blockedOrder(fixed, distinct-nCo, false), nil, 5, 11)
	trees := distinctTrees(rng, coSizes, map[canon.Hash]bool{})
	// Each entry is a cotree or a seeded edge-list request; the specs
	// are rendered in parallel afterwards.
	type entry struct {
		t *cotree.Tree
		r workload.Request
	}
	entries := make([]entry, len(kinds))
	for i, k := range kinds {
		if k == workload.KindCograph {
			entries[i].t, trees = trees[0], trees[1:]
			continue
		}
		entries[i].r = workload.Request{Seed: rng.Uint64(), N: min(edgeSizes[0].n, maxEdgeN), Kind: k}
		edgeSizes = edgeSizes[1:]
	}
	in.items = make([]item, len(entries))
	parallel(len(entries), runtime.NumCPU(), func(i int) {
		if e := entries[i]; e.t != nil {
			in.items[i] = item{kind: workload.KindCograph, n: e.t.NumVertices(), spec: cotreeSpec(e.t)}
		} else {
			in.items[i] = item{kind: e.r.Kind, n: e.r.N, spec: edgeSpec(e.r.N, e.r.Edges())}
		}
	})
	warm := make([]int, batchSize)
	for i := range warm {
		warm[i] = i
	}
	in.warm = []request{in.batch(warm)}
	stream := make([]int, 0, 2*distinct)
	for i := batchSize; i < distinct; i++ {
		stream = append(stream, i, i)
	}
	fixed.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for len(stream) >= batchSize {
		in.closed = append(in.closed, in.batch(stream[:batchSize]))
		stream = stream[batchSize:]
	}
	return in
}

// batch builds the /batch body of the given items from their exact
// spec bytes.
func (in *inputs) batch(idx []int) request {
	body := []byte(`{"graphs":[`)
	for i, k := range idx {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, in.items[k].spec...)
	}
	body = append(body, "]}"...)
	return request{path: "/batch", body: body, items: append([]int(nil), idx...)}
}

// digest identifies the request sequence, so records kept per seed are
// only compared between runs that sent the same bytes.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, phase := range [][]request{in.warm, in.open, in.closed} {
		for _, r := range phase {
			fmt.Fprintf(h, "%s %d\n", r.path, len(r.body))
			h.Write(r.body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

func describe(in *inputs) string {
	total := 0
	for _, it := range in.items {
		total += it.n
	}
	return fmt.Sprintf("%d presentations, %d vertices in all; %d warm-up, %d open-loop, %d closed-loop requests",
		len(in.items), total, len(in.warm), len(in.open), len(in.closed))
}
