package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestISRConstantTraceIsZero(t *testing.T) {
	trace := make([]float64, 1200)
	for i := range trace {
		trace[i] = 50
	}
	if got := ISR(trace, 50, 1200); got != 0 {
		t.Fatalf("ISR of constant trace = %v, want 0", got)
	}
}

func TestISRConstantOverloadedTraceIsZero(t *testing.T) {
	// Uniformly slow but stable: ISR must be 0. The paper lists this as an
	// explicit limitation: ISR does not capture "extremely poor but stable
	// performance".
	trace := make([]float64, 600)
	for i := range trace {
		trace[i] = 400
	}
	if got := ISR(trace, 50, 1200); got != 0 {
		t.Fatalf("ISR of constant overloaded trace = %v, want 0", got)
	}
}

func TestISRSubBudgetTicksClampToBudget(t *testing.T) {
	// Ticks faster than b have period b (the game waits for the next
	// scheduled tick start), so alternating 10ms/40ms ticks are NOT unstable.
	trace := make([]float64, 100)
	for i := range trace {
		if i%2 == 0 {
			trace[i] = 10
		} else {
			trace[i] = 40
		}
	}
	if got := ISR(trace, 50, 100); got != 0 {
		t.Fatalf("ISR of sub-budget alternating trace = %v, want 0 (max(b,t) clamps)", got)
	}
}

func TestISRMaximumVariabilityApproachesOne(t *testing.T) {
	// Alternating between b and an extremely large value drives ISR toward 1.
	// With s = 2001 and lambda = 2 the model gives (s-1)/(s+1) ≈ 0.999.
	trace := SyntheticOutlierTrace(2000, 2, 2001, 50)
	ne := 0
	for _, tt := range trace {
		ne += int(tt / 50)
	}
	got := ISR(trace, 50, ne)
	if got < 0.95 || got > 1 {
		t.Fatalf("ISR of alternation trace = %v, want near 1", got)
	}
}

func TestISRMatchesAnalyticModel(t *testing.T) {
	// §4.2: a trace where 1 in lambda ticks has duration s·b gives
	// ISR = (s-1)/(s+lambda-1), where Ne accounts for the longer outlier
	// periods (the trace occupies s·b per outlier).
	cases := []struct {
		s      float64
		lambda int
	}{
		{2, 2}, {2, 10}, {2, 100},
		{10, 5}, {10, 25}, {10, 50},
		{20, 2}, {20, 25}, {20, 100},
	}
	for _, c := range cases {
		// Build a long trace so edge effects vanish.
		cycles := 2000
		total := cycles * c.lambda
		trace := SyntheticOutlierTrace(total, c.lambda, c.s, 50)
		// Expected ticks if never overloaded: total duration / b. Each cycle
		// of lambda ticks has lambda-1 normal ticks and one of s·b.
		duration := float64(cycles) * (float64(c.lambda-1) + c.s) * 50
		ne := int(duration / 50)
		got := ISR(trace, 50, ne)
		want := ISRModel(c.s, float64(c.lambda))
		if !almostEqual(got, want, 0.01*want+1e-9) {
			t.Errorf("ISR(s=%v, lambda=%d) = %v, want %v", c.s, c.lambda, got, want)
		}
	}
}

func TestISRModelPaperExample(t *testing.T) {
	// "a tick exceeding b by a factor 10 (s=10) every 25 ticks (λ=25)
	// results in an ISR value of 0.26" — (10-1)/(10+25-1) = 9/34 ≈ 0.265.
	got := ISRModel(10, 25)
	if !almostEqual(got, 0.2647, 0.001) {
		t.Fatalf("ISRModel(10,25) = %v, want ≈0.265", got)
	}
}

func TestISRFigure6bOrderSensitivity(t *testing.T) {
	// Figure 6b: 1000 ticks, five outliers with scaling factor 20. Identical
	// distributions; front-loaded outliers give ISR ≈ 0.009, evenly spread
	// outliers give ISR ≈ 0.15 — an order of magnitude apart.
	const total, outliers = 1000, 5
	const s, b = 20.0, 50.0
	duration := (float64(total-outliers) + float64(outliers)*s) * b
	ne := int(duration / b)

	low := ISR(FrontLoadedOutlierTrace(total, outliers, s, b), b, ne)
	high := ISR(SpreadOutlierTrace(total, outliers, s, b), b, ne)

	if !almostEqual(low, 0.009, 0.003) {
		t.Errorf("front-loaded ISR = %v, want ≈0.009", low)
	}
	// Each spread outlier contributes two 950 ms transitions:
	// 5×2×950 / (1095×100) ≈ 0.087. (The paper reports 0.15 for its plotted
	// trace, whose outlier spacing differs slightly; the claim that matters —
	// an order of magnitude above the front-loaded trace — holds either way.)
	if !almostEqual(high, 0.087, 0.01) {
		t.Errorf("spread ISR = %v, want ≈0.087", high)
	}
	if high < 9*low {
		t.Errorf("spread ISR (%v) should be an order of magnitude above front-loaded (%v)", high, low)
	}
}

func TestISRDegenerateInputs(t *testing.T) {
	if got := ISR(nil, 50, 100); got != 0 {
		t.Errorf("ISR(nil) = %v, want 0", got)
	}
	if got := ISR([]float64{50}, 50, 100); got != 0 {
		t.Errorf("ISR(single tick) = %v, want 0", got)
	}
	if got := ISR([]float64{50, 100}, 0, 100); got != 0 {
		t.Errorf("ISR with b=0 = %v, want 0", got)
	}
	if got := ISR([]float64{50, 100}, 50, 0); got != 0 {
		t.Errorf("ISR with Ne=0 = %v, want 0", got)
	}
}

func TestExpectedTicks(t *testing.T) {
	if got := ExpectedTicks(time.Minute, 50*time.Millisecond); got != 1200 {
		t.Fatalf("ExpectedTicks(60s, 50ms) = %d, want 1200", got)
	}
	if got := ExpectedTicks(time.Second, 0); got != 0 {
		t.Fatalf("ExpectedTicks with b=0 = %d, want 0", got)
	}
}

// Property: ISR is always within [0, 1] for arbitrary traces.
func TestISRBoundedProperty(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		trace := make([]float64, len(raw))
		var dur float64
		for i, v := range raw {
			trace[i] = float64(v%5000) + 1
			dur += math.Max(50, trace[i])
		}
		ne := int(dur / 50)
		isr := ISR(trace, 50, ne)
		return isr >= 0 && isr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ISR is order dependent — sorting a spiky trace never increases
// its ISR (sorted order minimizes total variation for a fixed multiset).
func TestISRSortedMinimizesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 50 + rng.Intn(500)
		trace := make([]float64, n)
		var dur float64
		for i := range trace {
			trace[i] = 50
			if rng.Float64() < 0.1 {
				trace[i] = 50 * (1 + rng.Float64()*30)
			}
			dur += math.Max(50, trace[i])
		}
		ne := int(dur / 50)
		shuffled := ISR(trace, 50, ne)

		sorted := append([]float64(nil), trace...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if s := ISR(sorted, 50, ne); s > shuffled+1e-12 {
			t.Fatalf("trial %d: sorted ISR %v > unsorted ISR %v", trial, s, shuffled)
		}
	}
}

// Property: adding an outlier to a constant trace strictly increases ISR.
func TestISROutlierIncreasesProperty(t *testing.T) {
	f := func(pos uint8, scale uint8) bool {
		trace := make([]float64, 300)
		for i := range trace {
			trace[i] = 50
		}
		p := 1 + int(pos)%298
		s := 2 + float64(scale%40)
		trace[p] = 50 * s
		return ISR(trace, 50, 300) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestISRModelProperties(t *testing.T) {
	// Monotone increasing in s, decreasing in lambda.
	if !(ISRModel(20, 10) > ISRModel(10, 10) && ISRModel(10, 10) > ISRModel(2, 10)) {
		t.Error("ISRModel not increasing in s")
	}
	if !(ISRModel(10, 2) > ISRModel(10, 25) && ISRModel(10, 25) > ISRModel(10, 100)) {
		t.Error("ISRModel not decreasing in lambda")
	}
	if got := ISRModel(1, 10); got != 0 {
		t.Errorf("ISRModel(s=1) = %v, want 0 (no outliers)", got)
	}
	if got := ISRModel(0.5, 10); got != 0 {
		t.Errorf("ISRModel out of domain = %v, want 0", got)
	}
	// Limit s -> inf approaches 1 for lambda small.
	if got := ISRModel(1e9, 2); got < 0.999 {
		t.Errorf("ISRModel(s→∞, λ=2) = %v, want →1", got)
	}
}

func TestSyntheticTraceBuilders(t *testing.T) {
	tr := SyntheticOutlierTrace(10, 5, 3, 50)
	wantOutliers := 2
	n := 0
	for _, v := range tr {
		if v == 150 {
			n++
		} else if v != 50 {
			t.Fatalf("unexpected value %v", v)
		}
	}
	if n != wantOutliers {
		t.Fatalf("outliers = %d, want %d", n, wantOutliers)
	}

	fl := FrontLoadedOutlierTrace(10, 3, 4, 50)
	for i, v := range fl {
		want := 50.0
		if i < 3 {
			want = 200
		}
		if v != want {
			t.Fatalf("front-loaded[%d] = %v, want %v", i, v, want)
		}
	}

	sp := SpreadOutlierTrace(100, 5, 20, 50)
	n = 0
	for _, v := range sp {
		if v == 1000 {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("spread outliers = %d, want 5", n)
	}
}
