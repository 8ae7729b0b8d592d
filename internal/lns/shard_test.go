package lns

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestShardOf(t *testing.T) {
	cases := []struct {
		node, shards, want int
	}{
		{0, 4, 0},
		{ShardBlock - 1, 4, 0},
		{ShardBlock, 4, 1},
		{2 * ShardBlock, 4, 2},
		{4 * ShardBlock, 4, 0}, // round-robin wrap
		{5, 1, 0},
		{5, 0, 0},
		{-3, 4, 0}, // negative IDs are rejected downstream; route stably
	}
	for _, tc := range cases {
		if got := ShardOf(tc.node, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.node, tc.shards, got, tc.want)
		}
	}
	// Every node maps to exactly one in-range shard.
	for node := 0; node < 10*ShardBlock; node += 17 {
		for shards := 1; shards <= 9; shards++ {
			if s := ShardOf(node, shards); s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", node, shards, s)
			}
		}
	}
}

// TestSplitFracExactCover is the split-replay boundary property: for
// ANY stop/start fraction f and batch count n, a replay stopped at
// `-stop-frac f` and resumed at `-start-frac f` must cover every batch
// index exactly once — the boundary batch belongs to exactly one side.
// This is what makes loadgen's snapshot → restart → resume flow
// byte-identical to an uninterrupted run regardless of where the cut
// lands relative to batch boundaries.
func TestSplitFracExactCover(t *testing.T) {
	fracs := []float64{0, 1, 0.5, 1.0 / 3, 2.0 / 3, 0.1, 0.9,
		0.49999999999999994, 0.5000000000000001, // straddle a representable boundary
		math.Nextafter(1, 0), // largest float < 1
		5e-324,               // smallest positive denormal
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 50; i++ {
		fracs = append(fracs, rng.Float64())
	}
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 1 << 20} {
		for _, f := range fracs {
			_, stop := SplitFrac(0, f, n)
			start, end := SplitFrac(f, 1, n)
			if stop != start {
				t.Fatalf("n=%d f=%v: stop-frac covers [0,%d) but start-frac resumes at %d — batches %s",
					n, f, stop, start, map[bool]string{true: "lost", false: "duplicated"}[start > stop])
			}
			if end != n {
				t.Fatalf("n=%d f=%v: resume ends at %d, want %d", n, f, end, n)
			}
			if stop < 0 || stop > n {
				t.Fatalf("n=%d f=%v: cut %d out of range", n, f, stop)
			}
		}
	}
}

func TestSplitFracDegenerate(t *testing.T) {
	// Out-of-range and non-finite fractions clamp instead of exploding.
	if lo, hi := SplitFrac(-0.5, 2, 10); lo != 0 || hi != 10 {
		t.Errorf("clamped range = [%d,%d), want [0,10)", lo, hi)
	}
	if lo, hi := SplitFrac(math.NaN(), math.NaN(), 10); lo != 0 || hi != 0 {
		t.Errorf("NaN range = [%d,%d), want [0,0)", lo, hi)
	}
	// An inverted pair yields an empty range, not a negative one.
	if lo, hi := SplitFrac(0.8, 0.2, 10); lo > hi {
		t.Errorf("inverted pair yields negative range [%d,%d)", lo, hi)
	}
}
