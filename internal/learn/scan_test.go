package learn

import "testing"

func TestScanOutcomeBetter(t *testing.T) {
	invalid := scanOutcome{a: -1, b: -1}
	low := scanOutcome{delta: -2, a: 5, b: 9}
	high := scanOutcome{delta: 1, a: 0, b: 1}
	tieEarly := scanOutcome{delta: -2, a: 3, b: 7}
	tieSameA := scanOutcome{delta: -2, a: 5, b: 6}

	cases := []struct {
		name string
		x, y scanOutcome
		want bool
	}{
		{"valid beats invalid", low, invalid, true},
		{"invalid never beats valid", invalid, low, false},
		{"invalid vs invalid", invalid, invalid, false},
		{"smaller delta wins", low, high, true},
		{"larger delta loses", high, low, false},
		{"tie: smaller a wins", tieEarly, low, true},
		{"tie: larger a loses", low, tieEarly, false},
		{"tie on a: smaller b wins", tieSameA, low, true},
		{"equal is not better", low, low, false},
	}
	for _, tc := range cases {
		if got := tc.x.better(tc.y); got != tc.want {
			t.Errorf("%s: better = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// A single worker run through the parallel entry point must equal the
// plain serial path.
func TestScanSingleWorkerIsSerial(t *testing.T) {
	// Covered structurally: workers <= 1 dispatches to scanStripe with
	// stride 1. This test pins the dispatch so refactors cannot silently
	// change it: the candidate counts must match a hand count.
	weights := []int{0, 1, 2, 3}
	sets := [][]int{{0, 1, 2, 3}}
	res, err := FromSamples(4, weights, sets, Options{K: 1, Eps: 0.5, Iterations: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Full scan over n=4: endpoints 0..4, candidates a<b over [0,4] with
	// a<4: C(5,2) = 10 per iteration.
	if res.CandidatesScanned != 10 {
		t.Errorf("scanned = %d, want 10", res.CandidatesScanned)
	}
}
