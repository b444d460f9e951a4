package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// gen draws every input of a workload from the workload seed. Each
// workload derives its own streams (sizes, keys, op mix, payload bytes,
// fault instants) from it, so the program receives only generated data.
type gen struct {
	r *rand.Rand
	h [32]byte // running digest of everything generated
}

func newGen(seed uint64, stream string) *gen {
	s := sha256.Sum256([]byte(stream))
	return &gen{r: rand.New(rand.NewPCG(seed, binary.LittleEndian.Uint64(s[:])))}
}

// mix folds a generated value into the input digest.
func (g *gen) mix(b []byte) {
	h := sha256.New()
	h.Write(g.h[:])
	h.Write(b)
	copy(g.h[:], h.Sum(nil))
}

func (g *gen) intn(n int) int {
	v := g.r.IntN(n)
	g.mix(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	return v
}

func (g *gen) float() float64 {
	v := g.r.Float64()
	g.mix(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	return v
}

// logUniform draws n sizes log-uniformly from [lo, hi] by stratified
// sampling: one draw per equal-width stratum of log-size, then a seeded
// shuffle. Every seed therefore covers the whole range evenly, so
// virtual medians and tails move little from seed to seed while the
// sizes themselves and their order do. Sizes are not rounded to any
// chunk or page size.
func (g *gen) logUniform(n, lo, hi int) []int {
	out := g.strata(n, lo, hi)
	g.r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, s := range out {
		g.mix(binary.LittleEndian.AppendUint64(nil, uint64(s)))
	}
	return out
}

// uniforms draws n values from [0, 1) by stratified sampling, one per
// stratum of width 1/n, in seeded order: mapped through an inverse CDF
// they hit every part of the distribution in proportion, so the seed
// moves which op gets which draw, not how many land in each part.
func (g *gen) uniforms(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + g.r.Float64()) / float64(n)
	}
	g.r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, u := range out {
		g.mix(binary.LittleEndian.AppendUint64(nil, math.Float64bits(u)))
	}
	return out
}

// strata is logUniform before the shuffle: sizes[i] lies in stratum i.
func (g *gen) strata(n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + g.float()) / float64(n)
		out[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	return out
}

// rankSizes draws n sizes log-uniformly from [lo, hi] for keys ranked
// by popularity: rank r draws from log-size stratum (r*stride) mod n,
// with stride coprime to n, so the hottest keys always spread over the
// whole size range instead of landing wherever a shuffle puts them.
// The seed moves each size within its stratum; it cannot make every
// hot key small or every hot key large.
func (g *gen) rankSizes(n, lo, hi int) []int {
	stride := 7
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for r := range out {
		u := (float64(r*stride%n) + g.float()) / float64(n)
		out[r] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// zipf draws popularity ranks in [0, n) with probability proportional
// to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf}
}

// rank maps u in [0, 1) to a rank through the inverse CDF.
func (z zipf) rank(u float64) int {
	for r, c := range z.cdf {
		if u < c {
			return r
		}
	}
	return len(z.cdf) - 1
}

// payload returns size seeded bytes.
func (g *gen) payload(size int) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], g.r.Uint64())
	binary.LittleEndian.PutUint64(key[8:], g.r.Uint64())
	b := make([]byte, size)
	rand.NewChaCha8(key).Read(b)
	g.mix(key[:16])
	return b
}

// key returns a seeded object name; names decide ring placement.
func (g *gen) key(prefix string) string {
	k := fmt.Sprintf("%s-%016x", prefix, g.r.Uint64())
	g.mix([]byte(k))
	return k
}
