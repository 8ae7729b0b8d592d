package netserver

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestQuantizeWuNaN: Go's float-to-integer conversion of NaN is
// implementation-defined, so a NaN degradation ratio (e.g. from a
// malformed ingested report) must clamp to 0 explicitly, not map to an
// arbitrary byte.
func TestQuantizeWuNaN(t *testing.T) {
	if got := QuantizeWu(math.NaN()); got != 0 {
		t.Errorf("QuantizeWu(NaN) = %d, want 0", got)
	}
	if got := QuantizeWu(math.Inf(1)); got != 255 {
		t.Errorf("QuantizeWu(+Inf) = %d, want 255 (clamped)", got)
	}
	if got := QuantizeWu(math.Inf(-1)); got != 0 {
		t.Errorf("QuantizeWu(-Inf) = %d, want 0 (clamped)", got)
	}
}

// TestMaxDegradationDuplicateValues drives the tie-break walk directly
// with duplicated degradation values (white-box: degr is set rather
// than accumulated, so the duplicates are exact). The lowest ID holding
// the maximum must win regardless of where the duplicates sit.
func TestMaxDegradationDuplicateValues(t *testing.T) {
	cases := []struct {
		name   string
		degr   map[int]float64
		wantID int
	}{
		{"max duplicated at head and tail", map[int]float64{1: 0.7, 3: 0.2, 8: 0.7}, 1},
		{"max duplicated mid-walk", map[int]float64{0: 0.1, 4: 0.9, 6: 0.9, 7: 0.3}, 4},
		{"all equal", map[int]float64{2: 0.5, 5: 0.5, 11: 0.5}, 2},
		{"all zero", map[int]float64{3: 0, 9: 0}, 3},
		{"single node", map[int]float64{6: 0.4}, 6},
	}
	for _, tc := range cases {
		s := newTestServer(t)
		var want float64
		for id, d := range tc.degr {
			s.Register(id, 0.5)
			s.nodes[id].degr = d
			want = max(want, d)
		}
		id, d := s.MaxDegradation()
		if id != tc.wantID || d != want {
			t.Errorf("%s: MaxDegradation = (%d, %v), want (%d, %v)", tc.name, id, d, tc.wantID, want)
		}
	}
}

// TestRegisterResetsWatermarksReplayHazard documents the Register reset
// semantics the daemon and the simulator's rejoin path must respect: a
// re-Register resets the ingestion watermarks, so a pre-reset
// retransmission replays as fresh reports; Rejoin keeps the watermarks
// and stays deduplicated.
func TestRegisterResetsWatermarksReplayHazard(t *testing.T) {
	window := simtime.Minute
	t1 := simtime.Time(simtime.Hour)
	pkt := []battery.Report{
		battery.EncodeTransition(battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}, t1, window),
	}

	ingestTwice := func(readmit func(s *Server)) (packets, dups int64) {
		rec := obs.New(obs.Manifest{}, 0)
		s := newTestServer(t)
		s.SetObserver(rec)
		s.Register(1, 0.9)
		s.Ingest(1, pkt, t1, window)
		readmit(s)
		s.Ingest(1, pkt, t1, window) // pre-readmit retransmission
		return rec.Counter("netserver.packets_ingested").Value(),
			rec.Counter("netserver.packets_duplicate").Value()
	}

	// Rejoin keeps the watermarks: the retransmission is a duplicate.
	if packets, dups := ingestTwice(func(s *Server) { s.Rejoin(1, 0.8) }); packets != 1 || dups != 1 {
		t.Errorf("rejoin path: %d ingested / %d duplicate, want 1/1", packets, dups)
	}
	// Register resets them: the same retransmission replays as fresh.
	// This is the documented battery-replacement semantics — and exactly
	// why live-node restarts must use Rejoin.
	if packets, dups := ingestTwice(func(s *Server) { s.Register(1, 0.8) }); packets != 2 || dups != 0 {
		t.Errorf("register path: %d ingested / %d duplicate, want 2/0 (watermark reset)", packets, dups)
	}
}

// buildBusyServer ingests a few days of cycling reports for three nodes
// and recomputes, leaving non-trivial tracker, watermark, and clock
// state behind.
func buildBusyServer(t testing.TB) *Server {
	t.Helper()
	s := newTestServer(t)
	window := simtime.Minute
	for _, id := range []int{0, 2, 5} {
		s.Register(id, 0.9)
	}
	for day := 0; day < 10; day++ {
		at := simtime.Time(day) * simtime.Time(simtime.Day)
		for _, id := range []int{0, 2, 5} {
			lo := 0.2 + 0.1*float64(id)
			s.Ingest(id, []battery.Report{
				battery.EncodeTransition(battery.Transition{At: at, SoC: lo}, at.Add(simtime.Hour), window),
				battery.EncodeTransition(battery.Transition{At: at.Add(40 * simtime.Minute), SoC: 0.95}, at.Add(simtime.Hour), window),
			}, at.Add(simtime.Hour), window)
		}
		s.Recompute(at.Add(2 * simtime.Hour))
	}
	return s
}

// continueServer drives identical post-cut traffic into a server and
// returns its final w_u table.
func continueServer(s *Server) []NodeWu {
	window := simtime.Minute
	for day := 10; day < 20; day++ {
		at := simtime.Time(day) * simtime.Time(simtime.Day)
		for _, id := range []int{0, 2, 5} {
			s.Ingest(id, []battery.Report{
				battery.EncodeTransition(battery.Transition{At: at, SoC: 0.35}, at.Add(simtime.Hour), window),
				battery.EncodeTransition(battery.Transition{At: at.Add(25 * simtime.Minute), SoC: 0.9}, at.Add(simtime.Hour), window),
			}, at.Add(simtime.Hour), window)
		}
		s.Recompute(at.Add(2 * simtime.Hour))
	}
	return s.WuTable()
}

// TestServerSnapshotRoundTrip is the server-level exactness proof: a
// server restored from a JSON-serialized snapshot must produce
// byte-identical w_u tables and bit-identical degradations on every
// subsequent ingest/recompute, versus the uninterrupted server. It runs
// for the current schema and for testdata/snapshot_schema2.json — the
// same busy server written as schema 2, which still carries the three
// first-call recompute anchor fields that Restore must ignore.
func TestServerSnapshotRoundTrip(t *testing.T) {
	schema2, err := os.ReadFile("testdata/snapshot_schema2.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		load func(current []byte) []byte
	}{
		{"current schema", func(b []byte) []byte { return b }},
		{"schema 2", func([]byte) []byte { return schema2 }},
	} {
		orig := buildBusyServer(t)
		want, err := json.Marshal(orig.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var snap Snapshot
		if err := json.Unmarshal(tc.load(want), &snap); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		restored, err := Restore(&snap)
		if err != nil {
			t.Fatalf("%s: Restore: %v", tc.name, err)
		}
		// Everything but the dropped fields carries over — trackers,
		// dissemination results, watermarks, clock — in the current
		// schema.
		if got, err := json.Marshal(restored.Snapshot()); err != nil || string(got) != string(want) {
			t.Fatalf("%s: re-snapshot of the restored server differs (err %v):\n%s\n%s", tc.name, err, got, want)
		}

		if got, want := continueServer(restored), continueServer(orig); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: w_u table diverged after restore:\n%v\n%v", tc.name, got, want)
		}
		for _, id := range []int{0, 2, 5} {
			if got, want := restored.Degradation(id), orig.Degradation(id); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: node %d degradation diverged after continuation: %v vs %v", tc.name, id, got, want)
			}
		}
	}
}

// TestRestoreBetweenBarriers: traffic ingested after the latest barrier
// but before the snapshot must reach the restored server's next barrier
// at that same slot. The restored server cannot know the slot's pass is
// stale, so its first barrier always evaluates.
func TestRestoreBetweenBarriers(t *testing.T) {
	orig := buildBusyServer(t)
	before := orig.WuTable()

	// Node 2 cycles deeply within the slot of the latest barrier.
	window := simtime.Minute
	at := orig.Clock().Add(simtime.Hour)
	var reports []battery.Report
	for i := 0; i < 60; i++ {
		soc := 0.05
		if i%2 == 1 {
			soc = 1
		}
		tr := battery.Transition{At: at.Add(-simtime.Duration(60-i) * window), SoC: soc}
		reports = append(reports, battery.EncodeTransition(tr, at, window))
	}
	orig.Ingest(2, reports, at, window)

	restored, err := Restore(orig.Snapshot())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if GridInstant(at, orig.interval) != orig.GridInstant() {
		t.Fatal("test premise broken: the ingest left the latest barrier's slot")
	}
	if !restored.Recompute(at) {
		t.Error("first barrier after a restore skipped the degradation pass")
	}
	orig.Recompute(at)
	want := orig.WuTable()
	if reflect.DeepEqual(want, before) {
		t.Fatal("test premise broken: the post-barrier ingest did not change w_u")
	}
	if got := restored.WuTable(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored server published %v, want %v", got, want)
	}
}

// TestSnapshotPreservesWatermarks: a retransmission from before the
// snapshot must still be recognized as a duplicate after a restore —
// the watermarks are state, not cache.
func TestSnapshotPreservesWatermarks(t *testing.T) {
	window := simtime.Minute
	t1 := simtime.Time(simtime.Hour)
	pkt := []battery.Report{
		battery.EncodeTransition(battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}, t1, window),
	}
	s := newTestServer(t)
	s.Register(1, 0.9)
	s.Ingest(1, pkt, t1, window)

	restored, err := Restore(s.Snapshot())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rec := obs.New(obs.Manifest{}, 0)
	restored.SetObserver(rec)
	restored.Ingest(1, pkt, t1, window)
	if dups := rec.Counter("netserver.packets_duplicate").Value(); dups != 1 {
		t.Errorf("pre-snapshot retransmission not deduplicated after restore (%d duplicates)", dups)
	}
}

// TestRestoreRejectsForeignSchema: a daemon must refuse to restore a
// snapshot written by an incompatible layout.
func TestRestoreRejectsForeignSchema(t *testing.T) {
	for _, schema := range []int{1, 2, SnapshotSchema, 4} {
		snap := newTestServer(t).Snapshot()
		snap.Schema = schema
		_, err := Restore(snap)
		if accepted := schema == 2 || schema == SnapshotSchema; (err == nil) != accepted {
			t.Errorf("Restore of schema %d: err = %v, want accepted = %v", schema, err, accepted)
		}
	}
	bad := newTestServer(t).Snapshot()
	bad.Nodes = []NodeSnapshot{{ID: 3}, {ID: 3}}
	if _, err := Restore(bad); err == nil {
		t.Error("Restore accepted non-ascending node IDs")
	}
	huge := newTestServer(t).Snapshot()
	huge.Nodes = []NodeSnapshot{{ID: 1}, {ID: MaxNodeID + 1}}
	if _, err := Restore(huge); err == nil {
		t.Errorf("Restore accepted node ID %d above MaxNodeID", MaxNodeID+1)
	}
}

// TestRegisterPanicsOutOfRange: Register refuses an ID the dense index
// has no slot for loudly, never by dropping the node; the entry points
// refuse such IDs with an error before they get here.
func TestRegisterPanicsOutOfRange(t *testing.T) {
	for _, id := range []int{-1, MaxNodeID + 1} {
		s := newTestServer(t)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%d) did not panic", id)
				}
			}()
			s.Register(id, 0.5)
		}()
		if s.NumNodes() != 0 || len(s.nodes) != 0 {
			t.Errorf("Register(%d) admitted the node", id)
		}
	}
}

// TestSnapshotSplitMergeRoundTrip: SplitSnapshot → MergeSnapshots must
// reproduce the original snapshot byte-for-byte for any per-node shard
// map — the property the sharded daemon's /v1/snapshot and /v1/restore
// paths rest on. MergeWuTables gets the same treatment.
func TestSnapshotSplitMergeRoundTrip(t *testing.T) {
	s := buildBusyServer(t)
	want, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		shardOf := func(id int) int { return id % shards }
		parts := SplitSnapshot(s.Snapshot(), shards, shardOf)
		merged, err := MergeSnapshots(parts)
		if err != nil {
			t.Fatalf("shards=%d: MergeSnapshots: %v", shards, err)
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d: split/merge not identity:\n%s\n%s", shards, got, want)
		}

		var wuParts [][]NodeWu
		for _, p := range parts {
			srv, err := Restore(p)
			if err != nil {
				t.Fatalf("shards=%d: Restore part: %v", shards, err)
			}
			wuParts = append(wuParts, srv.WuTable())
		}
		if gotWu, wantWu := MergeWuTables(wuParts), s.WuTable(); !reflect.DeepEqual(gotWu, wantWu) {
			t.Fatalf("shards=%d: merged wu table %v, want %v", shards, gotWu, wantWu)
		}
	}
}

// TestMergeSnapshotsRejectsDisagreement: shards that drifted apart on
// global state indicate a barrier bug and must be surfaced, not merged.
func TestMergeSnapshotsRejectsDisagreement(t *testing.T) {
	a := buildBusyServer(t).Snapshot()
	b := buildBusyServer(t).Snapshot()
	b.IntervalMs += 1
	b.Nodes = nil
	a.Nodes = a.Nodes[:1]
	if _, err := MergeSnapshots([]*Snapshot{a, b}); err == nil {
		t.Error("MergeSnapshots accepted disagreeing global state")
	}
	c := buildBusyServer(t).Snapshot()
	d := buildBusyServer(t).Snapshot() // same node IDs → overlap
	if _, err := MergeSnapshots([]*Snapshot{c, d}); err == nil {
		t.Error("MergeSnapshots accepted overlapping node sets")
	}
	if _, err := MergeSnapshots(nil); err == nil {
		t.Error("MergeSnapshots accepted an empty part list")
	}
}

// TestWuTableOrder: the table walks ascending IDs with holes skipped.
func TestWuTableOrder(t *testing.T) {
	s := newTestServer(t)
	s.Register(9, 0.5)
	s.Register(1, 0.5)
	s.Register(4, 0.5)
	table := s.WuTable()
	want := []int{1, 4, 9}
	if len(table) != len(want) {
		t.Fatalf("table length %d, want %d", len(table), len(want))
	}
	for i, id := range want {
		if table[i].Node != id {
			t.Errorf("table[%d].Node = %d, want %d", i, table[i].Node, id)
		}
	}
}
