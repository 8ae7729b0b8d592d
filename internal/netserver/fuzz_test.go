package netserver

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// FuzzRestore feeds arbitrary bytes to the snapshot restore path that
// POST /v1/restore and lnsd -restore take. Any input either fails JSON
// decoding or Restore, or restores to a server whose snapshot
//
//   - re-encodes to bytes that restore, and snapshot again, to the same
//     bytes, and
//   - survives SplitSnapshot then MergeSnapshots unchanged at 1, 2 and
//     3 shards under the LNS daemon's routing rule.
//
// Seeds: the committed schema-2 snapshot, a schema-3 one with nodes in
// several shard blocks, that one truncated, and that one with a node ID
// above MaxNodeID. Run beyond them with
//
//	go test -run '^$' -fuzz FuzzRestore -fuzztime 10s ./internal/netserver
func FuzzRestore(f *testing.F) {
	schema2, err := os.ReadFile("testdata/snapshot_schema2.json")
	if err != nil {
		f.Fatal(err)
	}
	s := buildBusyServer(f)
	s.Register(300, 0.5)
	s.Register(520, 0.7)
	schema3, err := json.Marshal(s.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(schema2)
	f.Add(schema3)
	f.Add(schema3[:len(schema3)/2])
	oversized := strings.Replace(string(schema3), `"id":520`, `"id":1099511627776`, 1)
	if oversized == string(schema3) {
		f.Fatal("schema-3 seed has no node 520 to oversize")
	}
	f.Add([]byte(oversized))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		srv, err := Restore(&snap)
		if err != nil {
			return
		}
		first := srv.Snapshot()
		want := encodeSnapshot(t, first)
		var again Snapshot
		if err := json.Unmarshal(want, &again); err != nil {
			t.Fatalf("snapshot of a restored server does not decode: %v", err)
		}
		srv2, err := Restore(&again)
		if err != nil {
			t.Fatalf("snapshot of a restored server does not restore: %v", err)
		}
		if got := encodeSnapshot(t, srv2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("restore round trip changed the snapshot:\n got %s\nwant %s", got, want)
		}
		for n := 1; n <= 3; n++ {
			merged, err := MergeSnapshots(SplitSnapshot(first, n, func(id int) int { return daemonShardOf(id, n) }))
			if err != nil {
				t.Fatalf("%d shards: merge: %v", n, err)
			}
			if got := encodeSnapshot(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("%d shards: split then merge changed the snapshot:\n got %s\nwant %s", n, got, want)
			}
		}
	})
}

// daemonShardOf restates lns.ShardOf, which this package cannot
// import: blocks of 256 node IDs dealt round-robin across the shards.
func daemonShardOf(node, shards int) int {
	if shards < 2 || node < 0 {
		return 0
	}
	return (node / 256) % shards
}

func encodeSnapshot(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	return b
}

// FuzzQuantizeWu checks the 1-byte w_u wire form every ACK carries:
//
//   - NaN quantizes to 0, -Inf to 0 and +Inf to 255;
//   - quantization is monotone: a <= b implies Q(a) <= Q(b);
//   - every byte survives Q(D(b)) == b;
//   - a finite x comes back within half a step of its clamp to [0,1]:
//     |D(Q(x)) - clamp(x)| <= 1/510, up to the rounding of x·255 and of
//     the difference (a few ulps of 1: x = 0.5156862745098039 lies just
//     below the 131/132 midpoint, rounds up, and misses 1/510 by 1e-16).
//
// Run beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzQuantizeWu -fuzztime 10s ./internal/netserver
func FuzzQuantizeWu(f *testing.F) {
	halfStep := func(tb testing.TB, x float64) {
		const ulp1 = 0x1p-52 // the spacing of float64 just above 1
		if e := math.Abs(DequantizeWu(QuantizeWu(x)) - min(1, max(0, x))); e > 1.0/510+4*ulp1 {
			tb.Fatalf("QuantizeWu(%v) = %d: error %v exceeds half a step (1/510)", x, QuantizeWu(x), e)
		}
	}
	for _, pair := range [][2]float64{
		{0, 1}, {-1, 2}, {0.5, 0.5}, {1.0 / 510, 3.0 / 510}, {0.998, 1},
		{math.NaN(), 0.3}, {math.Inf(-1), math.Inf(1)}, {math.Copysign(0, -1), math.SmallestNonzeroFloat64},
		{0.5156862745098039, 0.5156862745098040},
	} {
		f.Add(pair[0], pair[1])
	}
	for b := 0; b < 256; b++ {
		if got := QuantizeWu(DequantizeWu(byte(b))); got != byte(b) {
			f.Fatalf("QuantizeWu(DequantizeWu(%d)) = %d", b, got)
		}
	}
	for x, want := range map[float64]byte{math.NaN(): 0, math.Inf(-1): 0, math.Inf(1): 255} {
		if got := QuantizeWu(x); got != want {
			f.Fatalf("QuantizeWu(%v) = %d, want %d", x, got, want)
		}
	}
	// The half-step bound is tightest next to the midpoints between two
	// steps, which random inputs rarely reach: walk 64 ulps either side
	// of each one.
	for k := 0; k < 255; k++ {
		down, up := (float64(k)+0.5)/255, (float64(k)+0.5)/255
		for i := 0; i < 64; i++ {
			halfStep(f, down)
			halfStep(f, up)
			down, up = math.Nextafter(down, 0), math.Nextafter(up, 1)
		}
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		if a > b {
			a, b = b, a
		}
		if qa, qb := QuantizeWu(a), QuantizeWu(b); a <= b && qa > qb {
			t.Fatalf("not monotone: QuantizeWu(%v) = %d > QuantizeWu(%v) = %d", a, qa, b, qb)
		}
		for _, x := range []float64{a, b} {
			if math.IsNaN(x) {
				if q := QuantizeWu(x); q != 0 {
					t.Fatalf("QuantizeWu(NaN) = %d, want 0", q)
				}
				continue
			}
			halfStep(t, x)
		}
	})
}
