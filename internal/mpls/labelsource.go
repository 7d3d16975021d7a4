package mpls

import (
	"math/rand"
	"sync"
)

// labelSource draws exactly what rand.New(rand.NewSource(seed)).Int63n
// draws, without seeding math/rand's 607-word state for every router.
//
// math/rand's source is an additive lagged Fibonacci generator. Seeding
// fills its state words vec[0..606]: word i is three consecutive values
// x_n = s·48271^n mod (2^31−1) of the Park–Miller sequence started at the
// normalized seed s (n = 21+3i, 22+3i and 23+3i, shifted left by 40, 20
// and 0 bits and XORed), XORed with a fixed per-word constant. Its k-th
// output is vec[334−k] + vec[607−k], and for k ≤ 273 both words still hold
// their seeded values. So the first 273 outputs need only the two words
// each one reads, computed from a power table: a pool draws at most a few
// dozen labels, where seeding costs 1,841 chained steps and ~4.9 KB per
// source. Past that prefix the source hands over to rand.NewSource,
// advanced past the outputs already drawn.
type labelSource struct {
	seed  int64       // the seed as given, for the handover
	s     uint64      // normalized Park–Miller seed, in [1, 2^31−2]
	drawn int         // outputs drawn so far
	rest  rand.Source // math/rand's own source, once past the prefix
}

const (
	rngLen    = 607 // math/rand's state words
	rngTap    = 273 // its tap distance; also the computable prefix
	rngFeed   = rngLen - rngTap
	rngMod    = 1<<31 - 1
	rngMul    = 48271
	rngWarmup = 20       // Park–Miller steps seeding discards
	rngZero   = 89482311 // what seeding uses in place of a zero seed
	int63Mask = 1<<63 - 1
)

// labelTables are the power table 48271^n mod (2^31−1) for every n
// seeding reaches, and the per-word constants.
type labelTables struct {
	pow    [rngWarmup + 3*rngLen + 1]uint64
	cooked [rngLen]uint64
}

// tables derives the constants once, from math/rand itself: the first 607
// outputs of a source determine every seeded word (each is written once
// before it is read again), and XORing out the Park–Miller part of the
// word leaves its constant.
var tables = sync.OnceValue(func() *labelTables {
	t := new(labelTables)
	t.pow[0] = 1
	for n := 1; n < len(t.pow); n++ {
		t.pow[n] = t.pow[n-1] * rngMul % rngMod
	}
	src := rand.NewSource(1).(rand.Source64) // s = 1, so x_n is pow[n]
	var out [rngLen + 1]uint64               // out[k] is the k-th output
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [rngLen]uint64
	for k := rngLen; k > 0; k-- {
		switch {
		case k > rngFeed: // feed word 941−k, tap word written at step k−273
			vec[rngLen+rngFeed-k] = out[k] - out[k-rngTap]
		case k > rngTap: // feed word 334−k, tap word written at step k−273
			vec[rngFeed-k] = out[k] - out[k-rngTap]
		default: // both words seeded; word 607−k was solved above
			vec[rngFeed-k] = out[k] - vec[rngLen-k]
		}
	}
	for i := range t.cooked {
		t.cooked[i] = vec[i] ^ t.word(1, i)
	}
	return t
})

// word is seeded state word i for normalized seed s, before its constant.
func (t *labelTables) word(s uint64, i int) uint64 {
	n := rngWarmup + 1 + 3*i
	return s*t.pow[n]%rngMod<<40 ^ s*t.pow[n+1]%rngMod<<20 ^ s*t.pow[n+2]%rngMod
}

func newLabelSource(seed int64) labelSource {
	s := seed % rngMod
	if s < 0 {
		s += rngMod
	}
	if s == 0 {
		s = rngZero
	}
	return labelSource{seed: seed, s: uint64(s)}
}

// int63 returns the next output of math/rand's source, masked to 63 bits.
func (src *labelSource) int63() int64 {
	src.drawn++
	if k := src.drawn; k <= rngTap {
		t := tables()
		v := t.word(src.s, rngFeed-k) ^ t.cooked[rngFeed-k]
		v += t.word(src.s, rngLen-k) ^ t.cooked[rngLen-k]
		return int64(v & int63Mask)
	}
	if src.rest == nil {
		src.rest = rand.NewSource(src.seed)
		for range rngTap {
			src.rest.Int63()
		}
	}
	return src.rest.Int63()
}

// Int63n is rand.Rand.Int63n over this source: a power-of-two n masks one
// output, any other n rejects outputs above the largest multiple of n.
func (src *labelSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("mpls: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return src.int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := src.int63()
	for v > limit {
		v = src.int63()
	}
	return v % n
}
