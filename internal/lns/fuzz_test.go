package lns

import (
	"bytes"
	"testing"
)

// FuzzParseObsJSONL feeds arbitrary bytes to the obs JSONL parser. Any
// input either errors or yields a trace whose nodes are strictly
// ascending by ID, each with at least one transition, the transitions
// sorted by At, and InitialSoC equal to the earliest transition's SoC.
// BuildBatches with default counts must then turn every accepted trace
// into batches carrying each transition exactly once.
//
// Run it beyond the seed corpus (testdata/fuzz/FuzzParseObsJSONL, which
// includes lines of a real blasim -obs export) with
//
//	go test -run '^$' -fuzz FuzzParseObsJSONL -fuzztime 10s ./internal/lns
func FuzzParseObsJSONL(f *testing.F) {
	f.Add([]byte(sampleJSONL))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseObsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		transitions := 0
		for i, nt := range tr.Nodes {
			if i > 0 && nt.ID <= tr.Nodes[i-1].ID {
				t.Fatalf("node %d follows node %d: IDs not strictly ascending", nt.ID, tr.Nodes[i-1].ID)
			}
			if len(nt.Transitions) == 0 {
				t.Fatalf("node %d has no transitions", nt.ID)
			}
			for j := 1; j < len(nt.Transitions); j++ {
				if nt.Transitions[j].At < nt.Transitions[j-1].At {
					t.Fatalf("node %d: transition %d at %v precedes %v", nt.ID, j, nt.Transitions[j].At, nt.Transitions[j-1].At)
				}
			}
			if nt.InitialSoC != nt.Transitions[0].SoC {
				t.Fatalf("node %d: InitialSoC %v, earliest transition SoC %v", nt.ID, nt.InitialSoC, nt.Transitions[0].SoC)
			}
			transitions += len(nt.Transitions)
		}
		reports := 0
		for _, b := range BuildBatches(tr, 0, 0, 0) {
			for _, u := range b.Uplinks {
				reports += len(u.Reports)
			}
		}
		if reports != transitions {
			t.Fatalf("batches carry %d reports for %d transitions", reports, transitions)
		}
	})
}
