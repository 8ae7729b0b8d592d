package netserver

import (
	"bytes"
	"encoding/json"
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
