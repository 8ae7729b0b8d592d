package netserver

import (
	"math"
	"testing"

	"repro/internal/battery"
	"repro/internal/simtime"
)

func newTestServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(battery.DefaultModel(), 25, simtime.Day)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	bad := battery.DefaultModel()
	bad.K1 = 0
	if _, err := New(bad, 25, simtime.Day); err == nil {
		t.Error("invalid model should fail")
	}
	if _, err := New(battery.DefaultModel(), 25, 0); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestRegisterAndCount(t *testing.T) {
	s := newTestServer(t)
	if s.NumNodes() != 0 {
		t.Error("fresh server should have no nodes")
	}
	s.Register(1, 0.5)
	s.Register(2, 0.9)
	s.Register(1, 0.5) // re-register resets, no duplicate
	if got := s.NumNodes(); got != 2 {
		t.Errorf("NumNodes = %d, want 2", got)
	}
}

func TestUnknownNodeQueries(t *testing.T) {
	s := newTestServer(t)
	if got := s.NormalizedDegradation(99); got != 0 {
		t.Errorf("unknown node w_u = %v, want 0", got)
	}
	if got := s.Degradation(99); got != 0 {
		t.Errorf("unknown node degradation = %v, want 0", got)
	}
	// Ingest for unknown node must not panic.
	s.Ingest(99, []battery.Report{{WindowsAgo: 1, SoCQ: 1000}}, simtime.Time(simtime.Hour), simtime.Minute)
	if id, d := s.MaxDegradation(); id != -1 || d != 0 {
		t.Errorf("MaxDegradation on empty server = %d,%v", id, d)
	}
}

// recomputeStep is one Server.Recompute call: optionally ingest a fresh
// report first, then call at `at` and expect `wantRan` and the grid slot
// `slot` the degradation was evaluated at.
type recomputeStep struct {
	at      simtime.Time
	ingest  bool
	wantRan bool
	slot    simtime.Time
}

func hours(n int) simtime.Time { return simtime.Time(n) * simtime.Time(simtime.Hour) }

// runRecomputeSteps drives a one-node server through steps and checks
// each call's result, grid slot and degradation against a reference
// tracker evaluated at the expected slot.
func runRecomputeSteps(t *testing.T, steps []recomputeStep) {
	t.Helper()
	window := simtime.Minute
	s := newTestServer(t)
	s.Register(1, 0.9)
	// ref mirrors node 1's reconstructed trace, so the expected
	// degradation at a slot is computed without going through Server.
	ref := battery.NewTracker(battery.DefaultModel(), 25)
	ref.Push(0.9)
	for i, st := range steps {
		if st.ingest {
			r := battery.EncodeTransition(battery.Transition{At: st.at - hours(1), SoC: 0.3}, st.at, window)
			s.Ingest(1, []battery.Report{r}, st.at, window)
			ref.Push(r.Decode(st.at, window).SoC)
		}
		if ran := s.Recompute(st.at); ran != st.wantRan {
			t.Errorf("step %d: Recompute(%v) ran = %v, want %v", i, st.at, ran, st.wantRan)
		}
		if got := s.GridInstant(); got != st.slot {
			t.Errorf("step %d: grid slot %v, want %v", i, got, st.slot)
		}
		if got, want := s.Degradation(1), ref.Degradation(simtime.Duration(st.slot)); got != want {
			t.Errorf("step %d: degradation %v, want %v (evaluated at slot %v)", i, got, want, st.slot)
		}
	}
}

// TestRecomputeIfDueCadence: Recompute evaluates on the first call and
// in each new grid slot, and skips the degradation pass only on a repeat
// in the same slot with nothing ingested since.
func TestRecomputeIfDueCadence(t *testing.T) {
	runRecomputeSteps(t, []recomputeStep{
		{hours(0), false, true, hours(0)},   // first call always evaluates
		{hours(1), false, false, hours(0)},  // same slot, nothing new
		{hours(1), true, true, hours(0)},    // an ingest dirties the slot
		{hours(23), false, false, hours(0)}, // same slot, nothing new
		{hours(25), false, true, hours(24)}, // next slot
	})
}

// TestRecomputeGridAlignment: a late Recompute (e.g. after a gateway
// outage) evaluates at the grid slot holding its instant, not at the
// call time, so the schedule never shifts off the interval grid.
func TestRecomputeGridAlignment(t *testing.T) {
	runRecomputeSteps(t, []recomputeStep{
		{hours(0), false, true, hours(0)},
		{hours(26), false, true, hours(24)},   // late call evaluates the 24h slot
		{hours(47), false, false, hours(24)},  // same slot, nothing new
		{hours(47), true, true, hours(24)},    // an ingest dirties the slot
		{hours(49), false, true, hours(48)},   // next slot, not 26h+24h
		{hours(200), false, true, hours(192)}, // several slots missed
		{hours(215), false, false, hours(192)},
		{hours(216), false, true, hours(216)},
	})
}

// TestMaxDegradationTieBreak: equal degradations must report the lowest
// node ID, not whichever the map iteration order visits last.
func TestMaxDegradationTieBreak(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := newTestServer(t)
		// Same initial SoC, no reports: identical calendar aging.
		s.Register(7, 0.8)
		s.Register(3, 0.8)
		s.Register(9, 0.8)
		s.Recompute(simtime.Time(simtime.Year))
		if s.Degradation(7) != s.Degradation(3) || s.Degradation(3) != s.Degradation(9) {
			t.Fatal("test premise broken: degradations differ")
		}
		id, d := s.MaxDegradation()
		if id != 3 {
			t.Fatalf("trial %d: MaxDegradation tie broke to node %d (degr %v), want lowest ID 3", trial, id, d)
		}
	}
}

// TestIngestIdempotent: a packet retried after a lost ACK (same reports
// re-encoded at a later transmission time) and an exact backhaul
// duplicate must both leave the reconstructed trace as if the packet
// arrived exactly once.
func TestIngestIdempotent(t *testing.T) {
	window := simtime.Minute
	tr1 := battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}
	tr2 := battery.Transition{At: simtime.Time(40 * simtime.Minute), SoC: 0.9}
	t1 := simtime.Time(simtime.Hour)
	t2 := t1.Add(5 * simtime.Minute)
	encode := func(at simtime.Time) []battery.Report {
		return []battery.Report{
			battery.EncodeTransition(tr1, at, window),
			battery.EncodeTransition(tr2, at, window),
		}
	}

	once := newTestServer(t)
	once.Register(1, 0.9)
	once.Ingest(1, encode(t1), t1, window)

	dup := newTestServer(t)
	dup.Register(1, 0.9)
	dup.Ingest(1, encode(t1), t1, window)
	dup.Ingest(1, encode(t1), t1, window) // exact backhaul duplicate
	dup.Ingest(1, encode(t2), t2, window) // retry after lost ACK

	now := simtime.Time(simtime.Day)
	once.Recompute(now)
	dup.Recompute(now)
	if got, want := dup.Degradation(1), once.Degradation(1); got != want {
		t.Errorf("duplicated ingestion degradation %v, want %v (single ingestion)", got, want)
	}
}

// TestIngestDropsReordered: a packet older than the newest ingested one
// is a straggler and must be dropped entirely.
func TestIngestDropsReordered(t *testing.T) {
	window := simtime.Minute
	old := battery.Transition{At: simtime.Time(5 * simtime.Minute), SoC: 0.1}
	t1 := simtime.Time(30 * simtime.Minute)
	t2 := simtime.Time(simtime.Hour)

	s := newTestServer(t)
	s.Register(1, 0.9)
	s.Ingest(1, nil, t2, window) // newer (empty) packet arrives first
	s.Ingest(1, []battery.Report{battery.EncodeTransition(old, t1, window)}, t1, window)

	ref := newTestServer(t)
	ref.Register(1, 0.9)
	ref.Ingest(1, nil, t2, window)

	now := simtime.Time(simtime.Day)
	s.Recompute(now)
	ref.Recompute(now)
	if got, want := s.Degradation(1), ref.Degradation(1); got != want {
		t.Errorf("reordered packet was ingested: degradation %v, want %v", got, want)
	}
}

// TestIngestRetryWithFreshReports: a retry that re-piggybacks unACKed
// reports alongside new transitions must contribute only the new ones.
func TestIngestRetryWithFreshReports(t *testing.T) {
	window := simtime.Minute
	trOld := battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}
	trNew := battery.Transition{At: simtime.Time(70 * simtime.Minute), SoC: 0.8}
	t1 := simtime.Time(simtime.Hour)
	t2 := simtime.Time(2 * simtime.Hour)

	s := newTestServer(t)
	s.Register(1, 0.9)
	s.Ingest(1, []battery.Report{battery.EncodeTransition(trOld, t1, window)}, t1, window)
	s.Ingest(1, []battery.Report{
		battery.EncodeTransition(trOld, t2, window), // still unACKed, re-sent
		battery.EncodeTransition(trNew, t2, window),
	}, t2, window)

	ref := newTestServer(t)
	ref.Register(1, 0.9)
	ref.Ingest(1, []battery.Report{battery.EncodeTransition(trOld, t1, window)}, t1, window)
	ref.Ingest(1, []battery.Report{battery.EncodeTransition(trNew, t2, window)}, t2, window)

	now := simtime.Time(simtime.Day)
	s.Recompute(now)
	ref.Recompute(now)
	if got, want := s.Degradation(1), ref.Degradation(1); got != want {
		t.Errorf("re-piggybacked report was double-counted: degradation %v, want %v", got, want)
	}
}

// TestRejoinPreservesHistory: a brownout rejoin keeps the accumulated
// degradation (the battery did not reset), unlike a fresh Register.
func TestRejoinPreservesHistory(t *testing.T) {
	window := simtime.Minute
	build := func() *Server {
		s := newTestServer(t)
		s.Register(1, 0.9)
		for day := 0; day < 50; day++ {
			at := simtime.Time(day) * simtime.Time(simtime.Day)
			s.Ingest(1, []battery.Report{
				battery.EncodeTransition(battery.Transition{At: at, SoC: 0.3}, at.Add(simtime.Hour), window),
				battery.EncodeTransition(battery.Transition{At: at.Add(30 * simtime.Minute), SoC: 0.9}, at.Add(simtime.Hour), window),
			}, at.Add(simtime.Hour), window)
		}
		return s
	}
	now := simtime.Time(60 * simtime.Day)

	rejoined := build()
	rejoined.Rejoin(1, 0.7)
	rejoined.Recompute(now)

	reset := build()
	reset.Register(1, 0.7)
	reset.Recompute(now)

	if rejoined.Degradation(1) <= reset.Degradation(1) {
		t.Errorf("rejoin lost cycle history: degradation %v not above reset %v",
			rejoined.Degradation(1), reset.Degradation(1))
	}

	// Rejoin of an unknown node degrades to a fresh registration.
	s := newTestServer(t)
	s.Rejoin(42, 0.5)
	if s.NumNodes() != 1 {
		t.Error("rejoin of unknown node did not register it")
	}
}

// TestWuQuantizationGolden: the 1-byte w_u wire form at its boundary
// values, matching the ACK payload budget of the paper.
func TestWuQuantizationGolden(t *testing.T) {
	cases := []struct {
		wu float64
		b  byte
	}{
		{0, 0},
		{1.0 / 255, 1},
		{254.0 / 255, 254},
		{255.0 / 255, 255},
		{-0.5, 0}, // clamped
		{1.5, 255},
	}
	for _, tc := range cases {
		if got := QuantizeWu(tc.wu); got != tc.b {
			t.Errorf("QuantizeWu(%v) = %d, want %d", tc.wu, got, tc.b)
		}
	}
	for _, b := range []byte{0, 1, 255} {
		if got := QuantizeWu(DequantizeWu(b)); got != b {
			t.Errorf("quantize(dequantize(%d)) = %d, want exact round-trip", b, got)
		}
	}
	if got := DequantizeWu(0); got != 0 {
		t.Errorf("DequantizeWu(0) = %v, want 0", got)
	}
	if got := DequantizeWu(255); got != 1 {
		t.Errorf("DequantizeWu(255) = %v, want 1", got)
	}
	if got := DequantizeWu(1); got != 1.0/255 {
		t.Errorf("DequantizeWu(1) = %v, want 1/255", got)
	}
}

// TestNormalizedDegradationOrdering: an always-full battery must end up
// with w_u = 1 (the most degraded) and the low-SoC battery below it.
func TestNormalizedDegradationOrdering(t *testing.T) {
	s := newTestServer(t)
	s.Register(1, 1.0) // resting full: fastest calendar aging
	s.Register(2, 0.3) // resting low
	now := simtime.Time(simtime.Year)
	s.Recompute(now)

	w1 := s.NormalizedDegradation(1)
	w2 := s.NormalizedDegradation(2)
	if w1 != 1 {
		t.Errorf("most degraded node w_u = %v, want exactly 1", w1)
	}
	if w2 >= w1 {
		t.Errorf("lower-SoC node w_u = %v, want < %v", w2, w1)
	}
	id, d := s.MaxDegradation()
	if id != 1 || d <= 0 {
		t.Errorf("MaxDegradation = %d,%v, want node 1", id, d)
	}
	if got := s.Degradation(1); got != d {
		t.Errorf("Degradation(1) = %v, want %v", got, d)
	}
}

// TestQuantization: w_u arrives in 1/255 steps, matching the 1-byte ACK
// piggyback overhead the paper budgets.
func TestQuantization(t *testing.T) {
	s := newTestServer(t)
	s.Register(1, 1.0)
	s.Register(2, 0.62)
	s.Recompute(simtime.Time(simtime.Year))

	w2 := s.NormalizedDegradation(2)
	scaled := w2 * 255
	if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
		t.Errorf("w_u = %v is not a 1/255 multiple", w2)
	}
}

// TestIngestDrivesCycleAging: reports describing deep daily cycles must
// raise the reconstructed degradation above a no-cycling node's.
func TestIngestDrivesCycleAging(t *testing.T) {
	s := newTestServer(t)
	// Node 1 cycles 0.9 <-> 0.3 (mean cycle SoC 0.6); node 2 rests at the
	// same mean SoC 0.6, so calendar aging matches and cycle aging is the
	// only difference.
	s.Register(1, 0.9)
	s.Register(2, 0.6)

	window := simtime.Minute
	for day := 0; day < 100; day++ {
		at := simtime.Time(day) * simtime.Time(simtime.Day)
		// Node 1 swings 0.9 -> 0.3 -> 0.9 daily; node 2 reports nothing.
		s.Ingest(1, []battery.Report{
			battery.EncodeTransition(battery.Transition{At: at, SoC: 0.3}, at.Add(simtime.Hour), window),
			battery.EncodeTransition(battery.Transition{At: at.Add(30 * simtime.Minute), SoC: 0.9}, at.Add(simtime.Hour), window),
		}, at.Add(simtime.Hour), window)
	}
	now := simtime.Time(100 * simtime.Day)
	s.Recompute(now)
	if s.Degradation(1) <= s.Degradation(2) {
		t.Errorf("cycling node degradation %v should exceed idle node %v",
			s.Degradation(1), s.Degradation(2))
	}
}
