package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// sample is one op that was served and answered correctly. ms is its
// ServeHTTP latency on a machine of nominal speed (see reference.go).
type sample struct {
	op int // index into script.ops
	ms float64
}

// round is what one closed-loop pass over the script measured. wall and cpu
// cover the work phases only, on a machine of nominal speed; rawWall is
// their wall-clock time.
type round struct {
	wall, cpu, rawWall time.Duration
	samples            []sample
	failed             int
	firstErr           error
	respBytes          int64
}

func (r *round) ops() int { return len(r.samples) + r.failed }

// speed is the machine's mean speed over the round's work phases.
func (r *round) speed() float64 { return ratio(float64(r.wall), float64(r.rawWall)) }

// latencies returns the round's query (or update) latencies in ms.
func (r *round) latencies(sc *script, queries bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if sc.ops[s.op].isQuery() == queries {
			out = append(out, s.ms)
		}
	}
	return out
}

// limit ends a round: after dur has passed, or — for tests, which need
// exact repeatability — after ops ops.
type limit struct {
	dur time.Duration
	ops int
}

// runner drives a script against a stack as one closed-loop client: each
// next request only after the previous response. It keeps its place in the
// script from one round to the next.
type runner struct {
	st     *stack
	sc     *script
	block  int
	cursor int
	rec    *recorder
	ref    *reference
	// after, when set, runs after every op (the traced run decomposes the
	// op there).
	after func(o *op, start time.Time, lat time.Duration)
}

func newRunner(st *stack, sc *script, block int) *runner {
	return &runner{st: st, sc: sc, block: block, rec: newRecorder(), ref: newReference()}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run plays one round: work phases — ops back to back for workPhase and
// then to the end of the script block — alternating with reference phases,
// until the limit. What a work phase measured is scaled by the mean of the
// two speeds measured around it.
func (r *runner) run(lim limit) round {
	refDur := referencePhase
	if lim.ops > 0 {
		refDur = 0 // fixed-count rounds are for counts, not times: one pass
	}
	var out round
	start := time.Now()
	before := r.ref.measure(refDur)
	for done := false; !done; {
		first, cpu0, phaseStart := len(out.samples), cpuTime(), time.Now()
		for n := 0; ; n++ {
			if n%r.block == 0 && (lim.ops > 0 && n >= lim.ops || lim.ops == 0 && time.Since(phaseStart) >= workPhase) {
				break
			}
			i := r.sc.order[r.cursor]
			r.cursor = (r.cursor + 1) % len(r.sc.order)
			o := &r.sc.ops[i]
			t0, lat, err := send(r.st.srv, r.rec, o)
			if err == nil {
				err = check(r.rec, o)
			}
			out.respBytes += int64(r.rec.buf.Len())
			if err != nil {
				out.failed++
				if out.firstErr == nil {
					out.firstErr = err
				}
			} else {
				out.samples = append(out.samples, sample{op: i, ms: float64(lat) / float64(time.Millisecond)})
			}
			if r.after != nil {
				r.after(o, t0, lat)
			}
		}
		worked, cpu := time.Since(phaseStart), cpuTime()-cpu0
		after := r.ref.measure(refDur)
		speed := (before + after) / 2
		before = after
		for i := first; i < len(out.samples); i++ {
			out.samples[i].ms *= speed
		}
		out.rawWall += worked
		out.wall += time.Duration(float64(worked) * speed)
		out.cpu += time.Duration(float64(cpu) * speed)
		done = lim.ops > 0 || time.Since(start) >= lim.dur
	}
	return out
}

// settle collects garbage twice, so that what the previous phase left
// behind is neither counted as live nor collected during the next phase.
func settle() {
	runtime.GC()
	runtime.GC()
}

// percentile interpolates linearly between the two nearest ranks; q in
// [0, 1]. It returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// perRoundMin is the sample count from which a percentile is computed per
// round and reported as the median over rounds; below it the rounds are
// pooled, so that p95 keeps at least ten samples beyond it.
const perRoundMin = 200

// roundPercentile reports a latency percentile over the measured rounds
// and the number of samples behind it.
func roundPercentile(perRound [][]float64, q float64) (float64, int) {
	var pooled, each []float64
	enough := true
	for _, xs := range perRound {
		pooled = append(pooled, xs...)
		each = append(each, percentile(xs, q))
		enough = enough && len(xs) >= perRoundMin
	}
	if enough {
		return median(each), len(pooled)
	}
	return percentile(pooled, q), len(pooled)
}
