package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	if lo == hi || math.IsInf(s[hi], 0) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs returns each sample's due-time latency in ms; a failed
// request counts as +Inf, so it misses every latency limit.
func latenciesMs(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.OK {
			out[i] = ms(s.Latency())
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func latesMs(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.Late())
	}
	return out
}

// Phase summarizes one load phase.
type Phase struct {
	Name    string  `json:"name"`
	Clients int     `json:"clients,omitempty"`
	Seconds float64 `json:"seconds"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Failed  int     `json:"failed"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	LateP50 float64 `json:"late_p50_ms"`
	LateP99 float64 `json:"late_p99_ms"`
	InLimit int     `json:"within_limit"`
	// CPUSec is the server's CPU time over a window; Steal is the share
	// of the host's CPU time the hypervisor gave to other guests.
	CPUSec   float64 `json:"server_cpu_s,omitempty"`
	Steal    float64 `json:"steal_share,omitempty"`
	RespByte float64 `json:"resp_bytes_mean"`
}

// summarize builds a Phase from its samples; limitMs, when positive,
// counts requests answered within the latency limit.
func summarize(name string, ss []Sample, seconds, limitMs float64) Phase {
	p := Phase{Name: name, Seconds: seconds, Sent: len(ss)}
	lat := latenciesMs(ss)
	bytes := 0
	for i, s := range ss {
		if s.OK {
			p.OK++
			bytes += s.Bytes
			if limitMs > 0 && lat[i] <= limitMs {
				p.InLimit++
			}
		}
	}
	p.Failed = p.Sent - p.OK
	p.P50Ms, p.P90Ms, p.P99Ms = finite(quantile(lat, 0.5)), finite(quantile(lat, 0.9)), finite(quantile(lat, 0.99))
	late := latesMs(ss)
	p.LateP50, p.LateP99 = finite(quantile(late, 0.5)), finite(quantile(late, 0.99))
	if p.OK > 0 {
		p.RespByte = float64(bytes) / float64(p.OK)
	}
	return p
}

// maxSteal is the steal share above which a repetition counts as
// disturbed.
const maxSteal = 0.02

// clean keeps the repetitions (windows, trainings, start-ups) whose
// steal share is at most maxSteal when at least half of them qualify,
// and otherwise the half with the least steal. On a shared virtual
// machine the hypervisor's steal comes in bursts that slow every layer
// at once; a repetition it hit says little about the program, and
// preferring the undisturbed ones keeps the metrics steady across runs.
func clean[T any](xs []T, steal func(T) float64) []T {
	var out []T
	for _, x := range xs {
		if steal(x) <= maxSteal {
			out = append(out, x)
		}
	}
	half := (len(xs) + 1) / 2
	if len(out) >= half {
		return out
	}
	out = append(out[:0], xs...)
	sort.SliceStable(out, func(i, j int) bool { return steal(out[i]) < steal(out[j]) })
	return out[:half]
}

// measured is one repetition's value and the host's steal share while
// it ran.
type measured struct {
	V     float64 `json:"v"`
	Steal float64 `json:"steal"`
}

// cleanMedian is the median value of the clean repetitions.
func cleanMedian(ms []measured) float64 {
	var xs []float64
	for _, m := range clean(ms, func(m measured) float64 { return m.Steal }) {
		xs = append(xs, m.V)
	}
	return median(xs)
}

func windowSteal(w Phase) float64 { return w.Steal }

// nonEmpty keeps the windows that sent at least one request; a window with
// none has no latency or rate to report.
func nonEmpty(ws []Phase) []Phase {
	var out []Phase
	for _, w := range ws {
		if w.Sent > 0 {
			out = append(out, w)
		}
	}
	return out
}

// windowMedian is the median of f over the clean windows.
func windowMedian(ws []Phase, f func(Phase) float64) float64 {
	var xs []float64
	for _, w := range clean(nonEmpty(ws), windowSteal) {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// windowRatio sums num and den over the clean windows and divides, so a
// rate weighs every clean second alike and the server's garbage
// collection cycles, which land in some windows and not others, average
// out.
func windowRatio(ws []Phase, num, den func(Phase) float64) float64 {
	var n, d float64
	for _, w := range clean(nonEmpty(ws), windowSteal) {
		n += num(w)
		d += den(w)
	}
	return n / d
}

// timedSteal runs fn and returns the host's steal share while it ran.
func timedSteal(fn func()) float64 {
	steal0, total0 := cpuSteal()
	fn()
	steal1, total1 := cpuSteal()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where unavailable).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
