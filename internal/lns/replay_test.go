package lns

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netserver"
	"repro/internal/simtime"
)

const sampleJSONL = `{"t":"manifest","schema":1,"tool":"repro","version":"0.4.0","seed":1,"replicate":0,"nodes":2,"sample_every_ms":600000}
{"t":"counter","name":"netserver.packets_ingested","v":12}
{"t":"sample","node":1,"at_ms":600000,"soc":0.7,"deg_cal":0,"deg_cyc":0,"deg_total":0,"dif":0,"window":-1,"queue":0,"retx":0,"stale_wu":0}
{"t":"sample","node":0,"at_ms":0,"soc":0.9,"deg_cal":0,"deg_cyc":0,"deg_total":0,"dif":0,"window":-1,"queue":0,"retx":0,"stale_wu":0}
{"t":"sample","node":0,"at_ms":600000,"soc":0.85,"deg_cal":0,"deg_cyc":0,"deg_total":0,"dif":0,"window":-1,"queue":0,"retx":0,"stale_wu":0}
{"t":"sample","node":0,"at_ms":1200000,"soc":0.8,"deg_cal":0,"deg_cyc":0,"deg_total":0,"dif":0,"window":-1,"queue":0,"retx":0,"stale_wu":0}
{"t":"event","node":0,"at_ms":700000,"kind":"brownout"}
`

func TestParseObsJSONL(t *testing.T) {
	tr, err := ParseObsJSONL(strings.NewReader(sampleJSONL))
	if err != nil {
		t.Fatalf("ParseObsJSONL: %v", err)
	}
	if tr.SampleEvery != 10*simtime.Minute {
		t.Errorf("SampleEvery = %v, want 10m", tr.SampleEvery)
	}
	if len(tr.Nodes) != 2 || tr.Nodes[0].ID != 0 || tr.Nodes[1].ID != 1 {
		t.Fatalf("nodes not ascending: %+v", tr.Nodes)
	}
	if got := len(tr.Nodes[0].Transitions); got != 3 {
		t.Errorf("node 0 has %d transitions, want 3", got)
	}
	if tr.Nodes[0].InitialSoC != 0.9 {
		t.Errorf("node 0 InitialSoC = %v, want first-sample 0.9", tr.Nodes[0].InitialSoC)
	}
	// Transitions sorted by time even though the file interleaved nodes.
	prev := simtime.Time(-1)
	for _, x := range tr.Nodes[0].Transitions {
		if x.At <= prev {
			t.Fatalf("node 0 transitions not strictly ascending: %v after %v", x.At, prev)
		}
		prev = x.At
	}
}

// TestParseObsJSONLLongLine: the scanner starts with a 64 KiB buffer
// and grows it up to 16 MiB, so a line longer than the initial buffer
// (here a sample record padded past it) still parses.
func TestParseObsJSONLLongLine(t *testing.T) {
	long := `{"t":"sample","node":3,"at_ms":600000,"soc":0.5,"pad":"` + strings.Repeat("x", 100*1024) + `"}`
	tr, err := ParseObsJSONL(strings.NewReader(long + "\n"))
	if err != nil {
		t.Fatalf("ParseObsJSONL: %v", err)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[0].ID != 3 || tr.Nodes[0].InitialSoC != 0.5 {
		t.Fatalf("long line parsed to %+v", tr.Nodes)
	}
}

// TestParseObsJSONLShuffledLines is the InitialSoC regression test: an
// export whose sample lines arrive out of time order (multi-writer
// exporters, log shippers, or a plain shuffle) must parse to the SAME
// trace as the time-ordered file. The old code captured InitialSoC from
// the first sample in FILE order while sorting transitions by time, so
// a shuffled export registered nodes with a mid-life SoC — and the
// whole downstream degradation reconstruction started from the wrong
// anchor.
func TestParseObsJSONLShuffledLines(t *testing.T) {
	want, err := ParseObsJSONL(strings.NewReader(sampleJSONL))
	if err != nil {
		t.Fatalf("ParseObsJSONL: %v", err)
	}

	lines := strings.Split(strings.TrimRight(sampleJSONL, "\n"), "\n")
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 8; trial++ {
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		got, err := ParseObsJSONL(strings.NewReader(strings.Join(lines, "\n") + "\n"))
		if err != nil {
			t.Fatalf("trial %d: ParseObsJSONL: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled export parsed differently:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}

	// The targeted case: node 0's newest sample first in the file. Its
	// registration SoC must still be the time-earliest sample (0.9).
	reversed := `{"t":"manifest","sample_every_ms":600000}
{"t":"sample","node":0,"at_ms":1200000,"soc":0.8}
{"t":"sample","node":0,"at_ms":600000,"soc":0.85}
{"t":"sample","node":0,"at_ms":0,"soc":0.9}
`
	tr, err := ParseObsJSONL(strings.NewReader(reversed))
	if err != nil {
		t.Fatalf("ParseObsJSONL: %v", err)
	}
	if tr.Nodes[0].InitialSoC != 0.9 {
		t.Errorf("InitialSoC = %v, want time-earliest 0.9 (got the file-order sample)", tr.Nodes[0].InitialSoC)
	}
}

func TestParseObsJSONLErrors(t *testing.T) {
	if _, err := ParseObsJSONL(strings.NewReader(`{"t":"manifest","sample_every_ms":600000}` + "\n")); err == nil {
		t.Error("no samples should be an error")
	}
	if _, err := ParseObsJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line should be an error")
	}
	for _, node := range []int{-1, netserver.MaxNodeID + 1} {
		line := fmt.Sprintf(`{"t":"sample","node":%d,"at_ms":0,"soc":0.5}`+"\n", node)
		if _, err := ParseObsJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("node %d outside [0, MaxNodeID] should be an error", node)
		}
	}
}

func TestBuildBatchesShape(t *testing.T) {
	tr, err := ParseObsJSONL(strings.NewReader(sampleJSONL))
	if err != nil {
		t.Fatal(err)
	}
	batches := BuildBatches(tr, 0, 2, 2)

	// Deterministic: same inputs, same batches.
	again := BuildBatches(tr, 0, 2, 2)
	if !reflect.DeepEqual(batches, again) {
		t.Fatal("BuildBatches is not deterministic")
	}

	var total int
	lastPerNode := map[int]int64{}
	prevAt := int64(-1)
	for _, b := range batches {
		for _, u := range b.Uplinks {
			total++
			if len(u.Reports) == 0 || len(u.Reports) > 2 {
				t.Fatalf("uplink has %d reports, want 1..2", len(u.Reports))
			}
			if u.AtMs < prevAt {
				t.Fatalf("global uplink order not ascending: %d after %d", u.AtMs, prevAt)
			}
			prevAt = u.AtMs
			// Per-node packet times strictly ascend, so the server's
			// duplicate watermark never drops legitimate replay packets.
			if last, ok := lastPerNode[u.Node]; ok && u.AtMs <= last {
				t.Fatalf("node %d packet times not strictly ascending", u.Node)
			}
			lastPerNode[u.Node] = u.AtMs
			for _, r := range u.Reports {
				_ = r.Ago // offsets are unsigned by construction
			}
		}
	}
	// node 0: 3 transitions / 2 per packet = 2 packets; node 1: 1 packet.
	if total != 3 {
		t.Fatalf("built %d uplinks, want 3", total)
	}
}
