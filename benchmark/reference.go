package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// The machine-speed reference.
//
// The sandbox this benchmark runs on changes speed by ±20 % from minute to
// minute, and at times by far more: the same binary on the same seed served
// join_scan at anything between 5 and 52 ops/s. No estimator over a 15 s run
// can remove that, because whole runs fall into one regime. So the benchmark
// measures the machine while it measures the program: a run alternates
// between short phases of scripted ops and short phases of reference work —
// three fixed kernels that touch no code of the repository (hash build and
// probe, a comparison sort, binary searches over 8 MiB) — on the same
// threads. How long a reference unit takes, against a nominal
// time fixed below, is the machine's speed at that moment, and every time
// the benchmark reports is multiplied by it: a latency measured while the
// machine ran at 0.8 of nominal speed is reported as 0.8 of its wall-clock
// value. Reported times are therefore times on a machine of nominal speed;
// the wall-clock throughput and the speed itself are in the run record.
// Normalizing brought the spread between ten runs from 10–20 % (and 90 % in
// a bad hour) down to 1–7 %; README.md has the tables.
//
// Counts and heap size are not times and are not touched.

// nominalUnit is how long one unit of each kernel takes on the sandbox the
// benchmark was written on, at its quietest. Only their constancy matters:
// they fix the scale the speed is measured on.
var nominalUnit = [...]time.Duration{
	hashKernel:   1100 * time.Microsecond,
	sortKernel:   1600 * time.Microsecond,
	searchKernel: 1400 * time.Microsecond,
}

const (
	hashKernel = iota
	sortKernel
	searchKernel
	kernels
)

// reference is the reference work and the buffers it uses.
type reference struct {
	// array is what the search kernel reads: 8 MiB, more than a core's
	// private caches hold.
	array []uint64
	keys  []uint64
	m     map[uint64]uint32
	recs  [][3]uint32
	x     uint64 // xorshift state
	sink  uint64 // keeps the kernels' results alive
	// aroundFor is how long around measures before and after; fixed-count
	// runs, which are for counts and not for times, set it to 0 (one pass).
	aroundFor time.Duration
}

func newReference() *reference {
	array := make([]uint64, 1<<20)
	for i := range array {
		array[i] = uint64(i) * 7
	}
	return &reference{
		array: array,
		keys:  make([]uint64, 1<<15),
		m:     make(map[uint64]uint32, 1<<15),
		recs:  make([][3]uint32, 1<<13),
		x:     88172645463325252,

		aroundFor: setupReference,
	}
}

func (r *reference) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// unit runs one unit of kernel k.
func (r *reference) unit(k int) {
	switch k {
	case hashKernel:
		clear(r.m)
		for i := range r.keys {
			r.keys[i] = r.next() >> 20
			r.m[r.keys[i]] = uint32(i)
		}
		for _, key := range r.keys {
			r.sink += uint64(r.m[key^1])
		}
	case sortKernel:
		for i := range r.recs {
			v := r.next()
			r.recs[i] = [3]uint32{uint32(v >> 40), uint32(v >> 20 & 0xfffff), uint32(v & 0xfffff)}
		}
		sort.Slice(r.recs, func(i, j int) bool { return slices.Compare(r.recs[i][:], r.recs[j][:]) < 0 })
		r.sink += uint64(r.recs[0][0])
	case searchKernel:
		top := r.array[len(r.array)-1]
		for i := 0; i < 4000; i++ {
			target := r.next() % top
			r.sink += uint64(sort.Search(len(r.array), func(j int) bool { return r.array[j] >= target }))
		}
	}
}

// measure runs whole passes over the kernels for about d (one pass at
// least) and returns the machine's speed: the geometric mean, over the
// kernels, of nominal unit time over measured unit time.
func (r *reference) measure(d time.Duration) float64 {
	var spent [kernels]time.Duration
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < d; passes++ {
		for k := 0; k < kernels; k++ {
			t0 := time.Now()
			r.unit(k)
			spent[k] += time.Since(t0)
		}
	}
	logSpeed := 0.0
	for k, s := range spent {
		logSpeed += math.Log(float64(nominalUnit[k]) * float64(passes) / float64(s))
	}
	return math.Exp(logSpeed / kernels)
}

// around runs fn and returns the machine's speed while it ran: the mean of
// the speeds measured right before and right after it.
func (r *reference) around(fn func()) float64 {
	before := r.measure(r.aroundFor)
	fn()
	return (before + r.measure(r.aroundFor)) / 2
}

// normalized times fn on a machine of nominal speed: the wall time it took,
// multiplied by the machine's speed around it.
func (r *reference) normalized(fn func()) time.Duration {
	var d time.Duration
	speed := r.around(func() {
		t0 := time.Now()
		fn()
		d = time.Since(t0)
	})
	return time.Duration(float64(d) * speed)
}

// Phase lengths. A work phase lasts workPhase and then to the end of the
// script block; reference phases between them last referencePhase, and
// setupReference around anything timed on its own (set-up, recovery).
const (
	workPhase      = 150 * time.Millisecond
	referencePhase = 50 * time.Millisecond
	setupReference = 100 * time.Millisecond
)
