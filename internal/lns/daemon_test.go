package lns

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/netserver"
	"repro/internal/simtime"
)

// synthTrace builds a deterministic multi-node trace: daily SoC cycles
// with per-node amplitude and phase, sampled every 10 minutes.
func synthTrace(nodes, days int, seed uint64) *Trace {
	tr := &Trace{SampleEvery: 10 * simtime.Minute}
	rng := rand.New(rand.NewPCG(seed, 99))
	for id := 0; id < nodes; id++ {
		depth := 0.2 + 0.5*rng.Float64()
		phase := rng.IntN(24)
		nt := NodeTrace{ID: id, InitialSoC: 0.9}
		for d := 0; d < days; d++ {
			for h := 0; h < 24; h += 2 {
				at := simtime.Time(d)*simtime.Time(simtime.Day) + simtime.Time(h)*simtime.Time(simtime.Hour)
				soc := 0.9 - depth*0.5*(1+float64((h+phase)%12)/6-1)
				nt.Transitions = append(nt.Transitions, battery.Transition{
					At:  at,
					SoC: min(1, max(0.05, soc)),
				})
			}
		}
		if len(nt.Transitions) > 0 {
			nt.InitialSoC = nt.Transitions[0].SoC
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	return tr
}

// spreadTrace stretches a trace's node IDs by stride so the fleet
// spans several ShardBlock ranges — dense test IDs 0..n would all land
// in shard 0 and make every multi-shard assertion vacuous.
func spreadTrace(tr *Trace, stride int) *Trace {
	out := &Trace{SampleEvery: tr.SampleEvery}
	for _, nt := range tr.Nodes {
		nt.ID *= stride
		out.Nodes = append(out.Nodes, nt)
	}
	return out
}

// snapBytesLib renders a server snapshot exactly as GET /v1/snapshot
// does (Encoder: one JSON object, trailing newline).
func snapBytesLib(t *testing.T, srv *netserver.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(srv.Snapshot()); err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	return buf.Bytes()
}

// getBytes fetches a daemon endpoint's raw body.
func getBytes(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf.Bytes()
}

// wuBytes renders a w_u table with the canonical writer.
func wuBytes(t *testing.T, table []netserver.NodeWu) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWuTable(&buf, table); err != nil {
		t.Fatalf("WriteWuTable: %v", err)
	}
	return buf.Bytes()
}

// driveHTTP replays registration, batches, and the final recompute
// through the daemon's HTTP API, one request at a time (order
// preserved), and returns the final w_u table bytes from GET /v1/wu.
func driveHTTP(t *testing.T, ts *httptest.Server, tr *Trace, batches []Batch, register bool, interval simtime.Duration) []byte {
	t.Helper()
	post := func(path string, body any) *http.Response {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal %s: %v", path, err)
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	if register {
		req := RegisterReq{}
		for _, nt := range tr.Nodes {
			req.Nodes = append(req.Nodes, RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
		}
		resp := post("/v1/register", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	for i, b := range batches {
		for {
			resp := post("/v1/uplinks", b)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("batch %d: status %d", i, resp.StatusCode)
			}
			// Backpressure: the test client just spins; loadgen sleeps
			// the advertised Retry-After.
		}
	}
	resp := post("/v1/recompute", RecomputeReq{AtMs: int64(LastUplinkAt(batches).Add(interval))})
	resp.Body.Close()

	wu, err := ts.Client().Get(ts.URL + "/v1/wu")
	if err != nil {
		t.Fatalf("GET /v1/wu: %v", err)
	}
	defer wu.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(wu.Body); err != nil {
		t.Fatalf("read wu: %v", err)
	}
	return buf.Bytes()
}

// TestHTTPMatchesLibraryPath: a clean replay through the daemon's HTTP
// path must produce a w_u table byte-identical to the in-process
// library path (ReplayLocal).
func TestHTTPMatchesLibraryPath(t *testing.T) {
	tr := synthTrace(6, 5, 1)
	batches := BuildBatches(tr, 0, 8, 16)
	cfg := Config{}

	lib, err := ReplayLocal(cfg, tr, batches)
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	want := wuBytes(t, lib.WuTable())

	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	got := driveHTTP(t, ts, tr, batches, true, cfg.withDefaults().Interval)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP path w_u table diverged from library path:\nhttp %s\nlib  %s", got, want)
	}
	if len(want) <= len("[]\n") {
		t.Fatal("test premise broken: empty w_u table")
	}
}

// perturb builds an adversarial variant of the uplink stream: duplicated
// uplinks, bounded and full shuffles, and random re-batching. The same
// perturbed stream feeds both paths; the perturbation itself is
// deterministic per trial.
func perturb(batches []Batch, rng *rand.Rand) []Batch {
	var ups []Uplink
	for _, b := range batches {
		ups = append(ups, b.Uplinks...)
	}
	// Duplicate ~20% (exact retransmissions at the same instant).
	var dup []Uplink
	for _, u := range ups {
		dup = append(dup, u)
		if rng.IntN(5) == 0 {
			dup = append(dup, u)
		}
	}
	// Shuffle: every other trial bounded (window 8), else full.
	if rng.IntN(2) == 0 {
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	} else {
		for i := range dup {
			j := i + rng.IntN(8)
			if j < len(dup) {
				dup[i], dup[j] = dup[j], dup[i]
			}
		}
	}
	// Re-batch with random sizes, including single-uplink batches.
	var out []Batch
	for lo := 0; lo < len(dup); {
		hi := min(lo+1+rng.IntN(17), len(dup))
		out = append(out, Batch{Uplinks: dup[lo:hi]})
		lo = hi
	}
	return out
}

// TestHTTPIngestIdempotence is the shards × shuffle property test:
// shuffled + duplicated + arbitrarily re-batched report streams driven
// through the HTTP path must leave a w_u table AND a snapshot
// byte-identical to direct library Ingest calls fed the same stream —
// at every shard count. The node IDs span several ShardBlock ranges,
// so multi-shard runs genuinely split the fleet and the perturbation's
// global shuffle genuinely interleaves the lanes. Additionally, a
// duplicates-only stream (order preserved) must match the clean run
// exactly — duplicates are invisible.
func TestHTTPIngestIdempotence(t *testing.T) {
	tr := spreadTrace(synthTrace(5, 4, 2), ShardBlock+1)
	clean := BuildBatches(tr, 0, 6, 16)
	cfg := Config{}
	interval := cfg.withDefaults().Interval

	cleanLib, err := ReplayLocal(cfg, tr, clean)
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	cleanWant := wuBytes(t, cleanLib.WuTable())

	for _, shards := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewPCG(11, uint64(100*shards+trial)))
			stream := perturb(clean, rng)

			lib, err := ReplayLocal(cfg, tr, stream)
			if err != nil {
				t.Fatalf("shards=%d trial %d: ReplayLocal: %v", shards, trial, err)
			}
			want := wuBytes(t, lib.WuTable())
			wantSnap := snapBytesLib(t, lib)

			d, err := NewDaemon(Config{Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d trial %d: NewDaemon: %v", shards, trial, err)
			}
			ts := httptest.NewServer(d.Handler())
			got := driveHTTP(t, ts, tr, stream, true, interval)
			gotSnap := getBytes(t, ts, "/v1/snapshot")
			ts.Close()
			d.Close()

			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d trial %d: HTTP path w_u diverged from library path on perturbed stream:\nhttp %s\nlib  %s",
					shards, trial, got, want)
			}
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Fatalf("shards=%d trial %d: HTTP snapshot diverged from library path", shards, trial)
			}
		}
	}

	// Duplicates only, order preserved: must equal the clean run.
	var dupOnly []Batch
	for _, b := range clean {
		var ups []Uplink
		for _, u := range b.Uplinks {
			ups = append(ups, u, u)
		}
		dupOnly = append(dupOnly, Batch{Uplinks: ups})
	}
	d, err := NewDaemon(Config{Shards: 4})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	got := driveHTTP(t, ts, tr, dupOnly, true, interval)
	if !bytes.Equal(got, cleanWant) {
		t.Fatalf("duplicated stream diverged from clean run:\ndup   %s\nclean %s", got, cleanWant)
	}
}

// TestSnapshotRestoreOverHTTP: replay half the stream, snapshot over
// HTTP, restore into a fresh daemon, replay the rest — the final table
// must match an uninterrupted run byte-for-byte.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	tr := synthTrace(4, 6, 3)
	batches := BuildBatches(tr, 0, 8, 8)
	cfg := Config{}
	interval := cfg.withDefaults().Interval
	cut := len(batches) / 2

	lib, err := ReplayLocal(cfg, tr, batches)
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	want := wuBytes(t, lib.WuTable())

	// First half.
	d1, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	ts1 := httptest.NewServer(d1.Handler())
	req := RegisterReq{}
	for _, nt := range tr.Nodes {
		req.Nodes = append(req.Nodes, RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
	}
	data, _ := json.Marshal(req)
	if resp, err := ts1.Client().Post(ts1.URL+"/v1/register", "application/json", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for _, b := range batches[:cut] {
		body, _ := json.Marshal(b)
		resp, err := ts1.Client().Post(ts1.URL+"/v1/uplinks", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first-half batch: %v status %v", err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	snapResp, err := ts1.Client().Get(ts1.URL + "/v1/snapshot")
	if err != nil {
		t.Fatalf("GET /v1/snapshot: %v", err)
	}
	var snapBody bytes.Buffer
	snapBody.ReadFrom(snapResp.Body)
	snapResp.Body.Close()
	ts1.Close()
	d1.Close()

	// Restored daemon resumes at the same batch index, no re-register.
	d2, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d2.Close()
	ts2 := httptest.NewServer(d2.Handler())
	defer ts2.Close()
	resp, err := ts2.Client().Post(ts2.URL+"/v1/restore", "application/json", bytes.NewReader(snapBody.Bytes()))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/restore: %v status %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	got := driveHTTP(t, ts2, tr, batches[cut:], false, interval)

	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot/restore run diverged from uninterrupted run:\nresumed %s\nfull    %s", got, want)
	}
}

// postBatches posts batches in order without any recompute, spinning on
// backpressure.
func postBatches(t *testing.T, ts *httptest.Server, batches []Batch) {
	t.Helper()
	for i, b := range batches {
		for {
			data, _ := json.Marshal(b)
			resp, err := ts.Client().Post(ts.URL+"/v1/uplinks", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("batch %d: status %d", i, resp.StatusCode)
			}
		}
	}
}

// TestShardedSnapshotRestoreAcrossShardCounts drives the full sharded
// state lifecycle: a mid-stream snapshot from an s-shard daemon must be
// byte-identical to the library path stopped at the same batch, AND
// restorable into a daemon with a DIFFERENT shard count (the snapshot
// wire format is shard-count-free; routing happens at restore). The
// resumed run must land exactly on the reference final state.
func TestShardedSnapshotRestoreAcrossShardCounts(t *testing.T) {
	// Stride 97 mixes several nodes per ShardBlock while still crossing
	// block boundaries — with 8 shards some shards stay empty, which the
	// merge path must also survive.
	tr := spreadTrace(synthTrace(6, 5, 9), 97)
	batches := BuildBatches(tr, 0, 8, 8)
	cfg := Config{}
	interval := cfg.withDefaults().Interval
	cut := len(batches) / 2
	finalAt := LastUplinkAt(batches).Add(interval)

	// Reference: prefix with a mid-stream barrier (what GET /v1/snapshot
	// performs), then the rest and the final barrier on the same server.
	libMid, err := ReplayLocalRange(cfg, tr, batches[:cut], false, 0)
	if err != nil {
		t.Fatalf("ReplayLocalRange: %v", err)
	}
	wantMidSnap := snapBytesLib(t, libMid)
	for _, b := range batches[cut:] {
		ReplayBatch(libMid, b)
	}
	libMid.Recompute(finalAt)
	wantWu := wuBytes(t, libMid.WuTable())
	wantSnap := snapBytesLib(t, libMid)

	// The mid-stream barrier must be invisible in the final w_u table:
	// a straight-through replay agrees.
	straight, err := ReplayLocal(cfg, tr, batches)
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	if !bytes.Equal(wuBytes(t, straight.WuTable()), wantWu) {
		t.Fatal("test premise broken: mid-stream barrier changed the final w_u table")
	}

	shardCounts := []int{1, 2, 4, 8}
	for i, shards := range shardCounts {
		resumeShards := shardCounts[(i+1)%len(shardCounts)]

		d1, err := NewDaemon(Config{Shards: shards})
		if err != nil {
			t.Fatalf("NewDaemon: %v", err)
		}
		ts1 := httptest.NewServer(d1.Handler())
		req := RegisterReq{}
		for _, nt := range tr.Nodes {
			req.Nodes = append(req.Nodes, RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
		}
		data, _ := json.Marshal(req)
		resp, err := ts1.Client().Post(ts1.URL+"/v1/register", "application/json", bytes.NewReader(data))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %v status %v", err, resp.StatusCode)
		}
		resp.Body.Close()
		postBatches(t, ts1, batches[:cut])
		midSnap := getBytes(t, ts1, "/v1/snapshot")
		ts1.Close()
		d1.Close()

		if !bytes.Equal(midSnap, wantMidSnap) {
			t.Fatalf("shards=%d: mid-stream snapshot diverged from library path", shards)
		}

		d2, err := NewDaemon(Config{Shards: resumeShards})
		if err != nil {
			t.Fatalf("NewDaemon: %v", err)
		}
		ts2 := httptest.NewServer(d2.Handler())
		resp, err = ts2.Client().Post(ts2.URL+"/v1/restore", "application/json", bytes.NewReader(midSnap))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("restore into shards=%d: %v status %v", resumeShards, err, resp.StatusCode)
		}
		resp.Body.Close()
		gotWu := driveHTTP(t, ts2, tr, batches[cut:], false, interval)
		gotSnap := getBytes(t, ts2, "/v1/snapshot")
		ts2.Close()
		d2.Close()

		if !bytes.Equal(gotWu, wantWu) {
			t.Fatalf("snapshot at shards=%d resumed at shards=%d: final w_u diverged:\ngot  %s\nwant %s",
				shards, resumeShards, gotWu, wantWu)
		}
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Fatalf("snapshot at shards=%d resumed at shards=%d: final snapshot diverged", shards, resumeShards)
		}
	}
}

// TestShardRouting pins the node→lane map end to end: uplinks for nodes
// in distinct ShardBlock ranges land on distinct shard workers, visible
// through the per-shard uplink counters.
func TestShardRouting(t *testing.T) {
	d, err := NewDaemon(Config{Shards: 4})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	nodes := []int{0, ShardBlock, 2 * ShardBlock, 3 * ShardBlock}
	var regs []RegisterNode
	for _, n := range nodes {
		regs = append(regs, RegisterNode{Node: n, SoC: 0.9})
	}
	if err := d.RegisterAll(regs); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}

	var ups []Uplink
	for _, n := range nodes {
		ups = append(ups, Uplink{Node: n, AtMs: int64(simtime.Hour), WindowMs: int64(simtime.Minute)})
	}
	// A second uplink for shard 0's node: counters must tell 2/1/1/1 apart.
	ups = append(ups, Uplink{Node: 0, AtMs: int64(2 * simtime.Hour), WindowMs: int64(simtime.Minute)})
	postBatches(t, ts, []Batch{{Uplinks: ups}})
	d.WuTable() // barrier: every lane drained

	wantPerShard := []int64{2, 1, 1, 1}
	for i, want := range wantPerShard {
		name := fmt.Sprintf("lns.shard%d.uplinks_applied", i)
		if got := d.Recorder().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := d.Recorder().Counter("lns.uplinks_applied").Value(); got != 5 {
		t.Errorf("lns.uplinks_applied = %d, want 5", got)
	}
}

// TestRetryAfterSeconds: the header must round UP to whole seconds —
// advertising a shorter wait than configured invites clients back
// before the lane can drain.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{1500 * time.Millisecond, 2}, // the truncation bug advertised 1
		{time.Second, 1},
		{999 * time.Millisecond, 1},
		{time.Millisecond, 1},
		{2 * time.Second, 2},
		{2100 * time.Millisecond, 3},
		{0, 1},
		{-time.Second, 1},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}

	// End to end: a daemon configured with a non-integral hint
	// advertises the rounded-UP value on a real 429.
	d, err := NewDaemon(Config{QueueDepth: 1, RetryAfter: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	if err := d.RegisterAll([]RegisterNode{{Node: 0, SoC: 0.9}}); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	go d.do(func() { close(started); <-gate })
	defer close(gate)
	<-started

	b := Batch{Uplinks: []Uplink{{Node: 0, AtMs: int64(simtime.Hour), WindowMs: int64(simtime.Minute)}}}
	data, _ := json.Marshal(b)
	for i := 0; i < 5; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/uplinks", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra != "2" {
				t.Errorf("Retry-After = %q, want \"2\" (1500ms rounds up)", ra)
			}
			return
		}
	}
	t.Fatal("never saw 429 with a stalled worker and QueueDepth=1")
}

// TestEmptyBatchAccounting: an empty POST /v1/uplinks is acknowledged
// but must not enqueue work or touch the ingest metrics — batches_applied
// and ingest_ns_total mean "batches that carried uplinks".
func TestEmptyBatchAccounting(t *testing.T) {
	d, err := NewDaemon(Config{})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	for _, body := range []string{`{"uplinks":[]}`, `{}`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/uplinks", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		var out IngestResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || out.Queued != 0 {
			t.Errorf("empty batch %s: status %d queued %d, want 202/0", body, resp.StatusCode, out.Queued)
		}
	}
	d.WuTable() // drain: any wrongly enqueued job would be applied now
	for _, name := range []string{"lns.batches_applied", "lns.ingest_ns_total", "lns.uplinks_applied"} {
		if v := d.Recorder().Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after empty batches, want 0", name, v)
		}
	}
}

// TestUplinksRejectsMalformedBodies: every body decodeBatch refuses,
// and one over maxBodyBytes, gets a 400 without touching the ingest
// counters or the lanes, and the daemon still replays a valid stream
// byte-identically to the library path afterwards.
func TestUplinksRejectsMalformedBodies(t *testing.T) {
	tr := synthTrace(3, 2, 8)
	batches := BuildBatches(tr, 0, 8, 16)
	lib, err := ReplayLocal(Config{}, tr, batches)
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	want := wuBytes(t, lib.WuTable())

	d, err := NewDaemon(Config{})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	if err := d.RegisterAll([]RegisterNode{{Node: 0, SoC: tr.Nodes[0].InitialSoC}}); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}

	const up = `{"node":0,"at_ms":3600000,"window_ms":600000,"reports":[{"ago":1,"soc_q":30000}]}`
	for name, body := range map[string]string{
		"trailing bytes":  `{"uplinks":[` + up + `]}{}`,
		"unknown field":   `{"uplinks":[{"node":0,"at_ms":3600000,"rssi":-90}]}`,
		"duplicate key":   `{"uplinks":[{"node":5,"at_ms":7}],"uplinks":[` + up + `]}`,
		"fractional node": `{"uplinks":[{"node":0.0,"at_ms":3600000}]}`,
		"soc_q 65536":     `{"uplinks":[{"node":0,"at_ms":3600000,"reports":[{"ago":1,"soc_q":65536}]}]}`,
		"bare null":       `null`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/uplinks", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: POST: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A valid batch followed by whitespace, generated as it is read, one
	// byte over maxBodyBytes in all. Declared, its length alone refuses
	// it; undeclared, as a chunked body is, the read bound does, after
	// buffering the 64 MiB.
	head := `{"uplinks":[` + up + `]}`
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/v1/uplinks",
			io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(head)))))
		req.ContentLength = -1
		if declared {
			req.ContentLength = maxBodyBytes + 1
		}
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body over maxBodyBytes, length declared %v: status %d, want 400", declared, rec.Code)
		}
	}

	if n := d.queued(); n != 0 {
		t.Errorf("%d jobs queued after rejected bodies", n)
	}
	d.WuTable() // drain: a wrongly enqueued batch would be applied now
	for _, name := range []string{"lns.batches_applied", "lns.batches_rejected", "lns.uplinks_applied", "netserver.packets_ingested"} {
		if v := d.Recorder().Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after rejected bodies, want 0", name, v)
		}
	}

	if got := driveHTTP(t, ts, tr, batches, true, simtime.Day); !bytes.Equal(got, want) {
		t.Fatalf("w_u after rejected bodies diverged from library path:\nhttp %s\nlib  %s", got, want)
	}
}

// TestRegisterRejectsOutOfRangeIDs: POST /v1/register refuses, with a
// 400 and nothing registered, any request naming a node ID the network
// server cannot index, rather than answering for nodes it dropped.
func TestRegisterRejectsOutOfRangeIDs(t *testing.T) {
	d, err := NewDaemon(Config{Shards: 2})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	for _, bad := range []int{-1, netserver.MaxNodeID + 1} {
		body := fmt.Sprintf(`{"nodes":[{"node":0,"soc":0.9},{"node":%d,"soc":0.5}]}`, bad)
		resp, err := ts.Client().Post(ts.URL+"/v1/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("node %d: POST: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("node %d: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if table := d.WuTable(); len(table) != 0 {
		t.Errorf("rejected requests registered %d nodes", len(table))
	}
	if v := d.Recorder().Counter("netserver.registers").Value(); v != 0 {
		t.Errorf("netserver.registers = %d after rejected requests, want 0", v)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBackpressure429: when the ingest lane is full, POST /v1/uplinks
// must answer 429 with a Retry-After hint, reject without corrupting
// state, and accept again once the lane drains.
func TestBackpressure429(t *testing.T) {
	d, err := NewDaemon(Config{QueueDepth: 2})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	if err := d.RegisterAll([]RegisterNode{{Node: 0, SoC: 0.9}}); err != nil {
		t.Fatalf("RegisterAll: %v", err)
	}

	// Stall the worker on a control job so the queue cannot drain.
	started := make(chan struct{})
	gate := make(chan struct{})
	go d.do(func() { close(started); <-gate })
	<-started

	post := func() *http.Response {
		b := Batch{Uplinks: []Uplink{{Node: 0, AtMs: int64(simtime.Hour), WindowMs: int64(simtime.Minute)}}}
		data, _ := json.Marshal(b)
		resp, err := ts.Client().Post(ts.URL+"/v1/uplinks", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST /v1/uplinks: %v", err)
		}
		resp.Body.Close()
		return resp
	}

	// Fill the lane, then observe the backpressure response.
	var saw429 *http.Response
	for i := 0; i < 10 && saw429 == nil; i++ {
		if resp := post(); resp.StatusCode == http.StatusTooManyRequests {
			saw429 = resp
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if saw429 == nil {
		t.Fatal("never saw 429 with a stalled worker and QueueDepth=2")
	}
	if ra := saw429.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	if rejected := d.Recorder().Counter("lns.batches_rejected").Value(); rejected == 0 {
		t.Error("lns.batches_rejected not incremented")
	}

	// Drain and verify the lane accepts again.
	close(gate)
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain status %d, want 202", resp.StatusCode)
	}
}

// TestMetricsEndpoint: the obs counters surface over HTTP in the
// deterministic CSV form.
func TestMetricsEndpoint(t *testing.T) {
	d, err := NewDaemon(Config{})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	tr := synthTrace(2, 2, 4)
	batches := BuildBatches(tr, 0, 8, 8)
	driveHTTP(t, ts, tr, batches, true, simtime.Day)

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"counter,lns.batches_applied,", "counter,lns.uplinks_applied,",
		"counter,netserver.packets_ingested,", "counter,netserver.recomputes,",
		"gauge,lns.queue_depth,",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "counter,lns.batches_applied,0\n") {
		t.Error("lns.batches_applied still 0 after a replay")
	}
}

// TestConfigDefaults pins the zero-value contract.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Model != battery.DefaultModel() || c.TempC != 25 || c.Interval != simtime.Day {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if c.QueueDepth <= 0 || c.RetryAfter <= 0 {
		t.Errorf("queue defaults not filled: %+v", c)
	}
	if fmt.Sprint(c.Interval) != "24h0m0s" {
		t.Errorf("interval = %v, want 24h", c.Interval)
	}
}

// TestRestoreRejectsBadSnapshots: POST /v1/restore refuses, with a 4xx,
// a snapshot cut short, one naming a node ID above netserver.MaxNodeID
// (which only the last shard's part carries, so a restore that swapped
// shards one by one would be caught half done), and one padded past
// maxBodyBytes; GET /v1/wu and GET /v1/snapshot answer the same bytes
// before and after.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cfg := Config{Shards: 2}
	tr := spreadTrace(synthTrace(4, 3, 5), 300)
	batches := BuildBatches(tr, 0, 8, 8)
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	driveHTTP(t, ts, tr, batches, true, cfg.withDefaults().Interval)
	wantWu, wantSnap := getBytes(t, ts, "/v1/wu"), getBytes(t, ts, "/v1/snapshot")

	// Every bad body is cut from a valid snapshot of another fleet, so a
	// restore that let any of it through would change the answers.
	otherTr := spreadTrace(synthTrace(6, 2, 17), 300)
	other, err := ReplayLocal(Config{}, otherTr, BuildBatches(otherTr, 0, 8, 8))
	if err != nil {
		t.Fatalf("ReplayLocal: %v", err)
	}
	valid := snapBytesLib(t, other)
	last := bytes.LastIndex(valid, []byte(`"id":`))
	end := last + len(`"id":`)
	for end < len(valid) && valid[end] >= '0' && valid[end] <= '9' {
		end++
	}
	// 2^40 + 256 lies in an odd ShardBlock, so shard 1's part carries it.
	oversized := string(valid[:last]) + `"id":1099511628032` + string(valid[end:])
	if last < 0 || oversized == string(valid) {
		t.Fatal("the other fleet's snapshot has no node ID to oversize")
	}
	head := string(valid)
	for name, body := range map[string]io.Reader{
		"truncated":       bytes.NewReader(valid[:len(valid)/2]),
		"node ID too big": strings.NewReader(oversized),
		"over the limit":  io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(head)))),
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/restore", body)
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, req)
		if rec.Code < 400 || rec.Code > 499 {
			t.Errorf("%s: status %d, want 4xx", name, rec.Code)
		}
	}

	if got := getBytes(t, ts, "/v1/wu"); !bytes.Equal(got, wantWu) {
		t.Errorf("GET /v1/wu changed after refused restores:\nafter  %s\nbefore %s", got, wantWu)
	}
	if got := getBytes(t, ts, "/v1/snapshot"); !bytes.Equal(got, wantSnap) {
		t.Errorf("GET /v1/snapshot changed after refused restores:\nafter  %s\nbefore %s", got, wantSnap)
	}
}
