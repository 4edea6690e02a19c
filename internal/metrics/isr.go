// Package metrics implements the performance-variability metrics used by the
// Meterstick benchmark: the novel Instability Ratio (ISR) from the paper's
// Equation 1, its closed-form analytic model, and the comparison metrics from
// Table 6 (standard deviation, Allan variance, RFC 3550 jitter), together with
// the descriptive statistics (percentiles, IQR, summaries) used throughout the
// evaluation.
//
// All metrics operate on tick-duration traces expressed in milliseconds as
// float64.
package metrics

import (
	"math"
	"time"
)

// TickBudgetMS is the intended delay between ticks (b in Equation 1) for an
// MLG running at its intended 20 Hz frequency: 50 ms.
const TickBudgetMS = 50.0

// ISR computes the Instability Ratio of a tick-duration trace, exactly as
// defined in Equation 1 of the paper:
//
//	ISR = Σ_{i=1}^{Na} |max(b,t_i) - max(b,t_{i-1})| / (Ne × 2b)
//
// ticks holds the observed tick durations t_i in milliseconds, b is the
// intended tick period in milliseconds, and expected is Ne, the number of
// ticks the trace would contain if the game had never been overloaded
// (duration / b). The sum starts at i=1 so a trace with fewer than two ticks
// has no consecutive pair and an ISR of 0.
//
// The result is in [0, 1]: 0 means a perfectly constant tick period, 1 means
// tick periods alternate between the intended value and extremely large
// values, the maximum-variability pattern.
func ISR(ticks []float64, b float64, expected int) float64 {
	if len(ticks) < 2 || expected <= 0 || b <= 0 {
		return 0
	}
	var sum float64
	prev := math.Max(b, ticks[0])
	for _, t := range ticks[1:] {
		cur := math.Max(b, t)
		sum += math.Abs(cur - prev)
		prev = cur
	}
	isr := sum / (float64(expected) * 2 * b)
	if isr > 1 {
		// The definition bounds ISR by 1; numerical pathologies (e.g. a
		// trace longer than its claimed expected length) are clamped so the
		// metric stays interpretable.
		isr = 1
	}
	return isr
}

// ExpectedTicks returns Ne: the number of ticks a run of the given length
// would contain at the intended tick period b.
func ExpectedTicks(runLength, b time.Duration) int {
	if b <= 0 {
		return 0
	}
	return int(runLength / b)
}

// ISRModel evaluates the closed-form model from §4.2 of the paper: a trace in
// which one out of every lambda ticks has duration s×b while all others have
// duration exactly b yields
//
//	ISR = (s-1) / (s+lambda-1)
//
// This is the function plotted in Figure 6a. s must be >= 1 and lambda >= 1;
// out-of-domain inputs return 0.
func ISRModel(s, lambda float64) float64 {
	if s < 1 || lambda < 1 {
		return 0
	}
	return (s - 1) / (s + lambda - 1)
}

// SyntheticOutlierTrace builds the §4.2 model trace: total ticks of duration
// b, where every lambda-th tick (1-indexed positions lambda, 2·lambda, ...)
// has duration s×b instead. It is used by the Figure 6 reproduction and by
// tests that validate ISR against the analytic model.
func SyntheticOutlierTrace(total, lambda int, s, b float64) []float64 {
	trace := make([]float64, total)
	for i := range trace {
		if lambda > 0 && (i+1)%lambda == 0 {
			trace[i] = s * b
		} else {
			trace[i] = b
		}
	}
	return trace
}

// FrontLoadedOutlierTrace builds the "Low ISR" trace from Figure 6b: total
// ticks of duration b with `outliers` consecutive ticks of duration s×b
// placed at the very start of the trace. Because the outliers are adjacent,
// only two tick-to-tick transitions differ from zero and ISR stays small even
// though the value distribution is identical to the spread-out trace.
func FrontLoadedOutlierTrace(total, outliers int, s, b float64) []float64 {
	trace := make([]float64, total)
	for i := range trace {
		if i < outliers {
			trace[i] = s * b
		} else {
			trace[i] = b
		}
	}
	return trace
}

// SpreadOutlierTrace builds the "High ISR" trace from Figure 6b: total ticks
// of duration b with `outliers` single ticks of duration s×b spread evenly
// over the trace. Every outlier contributes two large transitions, maximizing
// the cycle-to-cycle jitter sum for the given distribution of values.
func SpreadOutlierTrace(total, outliers int, s, b float64) []float64 {
	trace := make([]float64, total)
	for i := range trace {
		trace[i] = b
	}
	if outliers <= 0 {
		return trace
	}
	step := total / (outliers + 1)
	if step < 1 {
		step = 1
	}
	for k := 1; k <= outliers; k++ {
		idx := k * step
		if idx >= total {
			idx = total - 1
		}
		trace[idx] = s * b
	}
	return trace
}
