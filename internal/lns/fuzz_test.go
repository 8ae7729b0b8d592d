package lns

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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

// FuzzDecodeBatch checks the hand decoder of POST /v1/uplinks against
// encoding/json. It accepts a strict subset of what json.Unmarshal
// accepts (see decodeBatch), so the oracle is one-sided:
//
//  1. whatever decodeBatch accepts, json.Unmarshal accepts too, into a
//     reflect.DeepEqual Batch;
//  2. a Batch built from the input, written by json.Marshal as every
//     client writes it, is accepted and decodes DeepEqual to itself.
//
// The seed corpus (testdata/fuzz/FuzzDecodeBatch) holds real request
// bodies of a make lns-smoke replay (body_*, which must be accepted)
// and one input per reject class (reject_*, which must be rejected);
// TestDecodeBatchSeedCorpus holds the seeds to that. Run beyond it with
//
//	go test -run '^$' -fuzz FuzzDecodeBatch -fuzztime 10s ./internal/lns
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeBatch(bytes.NewReader(data), int64(len(data))); err == nil {
			var want Batch
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("decodeBatch accepted what json.Unmarshal rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeBatch(%q)\n = %#v\nwant %#v", data, got, want)
			}
		}
		b := batchFrom(data)
		body, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := decodeBatch(bytes.NewReader(body), -1)
		if err != nil {
			t.Fatalf("decodeBatch rejected json.Marshal output %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("round trip of %s\n = %#v\nwant %#v", body, got, b)
		}
	})
}

// batchFrom builds a Batch from fuzz bytes: a count byte, then per
// uplink three little-endian int64 fields and a reports byte (nil
// reports, or 1-4 reports of two uint16). Bytes past the end read as
// zero. Uplinks is never nil and Reports never empty-but-non-nil,
// because json.Marshal writes those as null and as nothing.
func batchFrom(data []byte) Batch {
	take := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	n := int(take(1)[0] % 9)
	b := Batch{Uplinks: make([]Uplink, 0, n)}
	for range n {
		u := Uplink{
			Node:     int(int64(binary.LittleEndian.Uint64(take(8)))),
			AtMs:     int64(binary.LittleEndian.Uint64(take(8))),
			WindowMs: int64(binary.LittleEndian.Uint64(take(8))),
		}
		for range int(take(1)[0] % 5) {
			r := take(4)
			u.Reports = append(u.Reports, WireReport{
				Ago:  binary.LittleEndian.Uint16(r),
				SoCQ: binary.LittleEndian.Uint16(r[2:]),
			})
		}
		b.Uplinks = append(b.Uplinks, u)
	}
	return b
}

// TestDecodeBatchSeedCorpus keeps FuzzDecodeBatch from being vacuous:
// every real request body in its seed corpus must be accepted, equal to
// json.Unmarshal's result, and every reject-class seed must be rejected.
func TestDecodeBatchSeedCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeBatch", "*"))
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected := 0, 0
	for _, path := range paths {
		name := filepath.Base(path)
		data := readCorpusBytes(t, path)
		got, err := decodeBatch(bytes.NewReader(data), int64(len(data)))
		switch {
		case strings.HasPrefix(name, "body_"):
			if err != nil {
				t.Errorf("%s rejected: %v", name, err)
				continue
			}
			var want Batch
			if err := json.Unmarshal(data, &want); err != nil {
				t.Errorf("%s: json.Unmarshal: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s decodes to %+v, json.Unmarshal to %+v", name, got, want)
			}
			accepted++
		case strings.HasPrefix(name, "reject_"):
			if err == nil {
				t.Errorf("%s accepted as %+v", name, got)
			}
			rejected++
		default:
			t.Errorf("seed %s is named neither body_* nor reject_*", name)
		}
	}
	if accepted < 3 || rejected < 10 {
		t.Fatalf("corpus has %d body and %d reject seeds; the classes are gone", accepted, rejected)
	}
}

// readCorpusBytes reads a one-value []byte seed file of the go test
// fuzz v1 format.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value go test fuzz v1 []byte file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestDecodeBatchReaders: decodeBatch reads the body to io.EOF however
// the reader splits it, with or without a declared size (a declared
// size only sizes the buffer), returns the reader's error, and decodes
// a body larger than the pool keeps.
func TestDecodeBatchReaders(t *testing.T) {
	small := wideBatch(40)
	large := wideBatch(20_000)
	smallBody, err := json.Marshal(small)
	if err != nil {
		t.Fatal(err)
	}
	largeBody, err := json.Marshal(large)
	if err != nil {
		t.Fatal(err)
	}
	if len(largeBody) <= maxPooledBytes {
		t.Fatalf("large body of %d bytes fits the %d-byte pool bound", len(largeBody), maxPooledBytes)
	}
	n := int64(len(smallBody))
	for name, c := range map[string]struct {
		r    io.Reader
		size int64
		want Batch
	}{
		"declared":         {bytes.NewReader(smallBody), n, small},
		"undeclared":       {bytes.NewReader(smallBody), -1, small},
		"declared short":   {bytes.NewReader(smallBody), n / 3, small},
		"declared long":    {bytes.NewReader(smallBody), 4 * n, small},
		"one byte a read":  {iotest.OneByteReader(bytes.NewReader(smallBody)), -1, small},
		"half reads":       {iotest.HalfReader(bytes.NewReader(smallBody)), n, small},
		"EOF with data":    {iotest.DataErrReader(bytes.NewReader(smallBody)), n, small},
		"large declared":   {bytes.NewReader(largeBody), int64(len(largeBody)), large},
		"large undeclared": {bytes.NewReader(largeBody), -1, large},
		"large half reads": {iotest.HalfReader(bytes.NewReader(largeBody)), -1, large},
	} {
		got, err := decodeBatch(c.r, c.size)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decoded batch differs from the one marshalled", name)
		}
	}

	errRead := errors.New("connection reset")
	if _, err := decodeBatch(io.MultiReader(bytes.NewReader(smallBody[:n/2]), iotest.ErrReader(errRead)), n); !errors.Is(err, errRead) {
		t.Errorf("read error: got %v, want %v", err, errRead)
	}
}

// TestDecodeBatchAllocs: a parser sized by one body reads the next as
// large without growing its buffer, and parsing builds the batch in two
// allocations, the []Uplink and the flat []WireReport.
func TestDecodeBatchAllocs(t *testing.T) {
	body, err := json.Marshal(wideBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	p := new(batchParser)
	if err := p.read(bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatal(err)
	}
	buf := &p.b[:1][0]
	if err := p.read(bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatal(err)
	}
	if &p.b[:1][0] != buf {
		t.Error("reading an equal-sized body grew the buffer")
	}
	if _, err := p.parse(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { p.parse() }); allocs != 2 {
		t.Errorf("parse: %v allocations, want 2", allocs)
	}
}

// wideBatch is n uplinks of eight reports each, at seven-digit node IDs.
func wideBatch(n int) Batch {
	b := Batch{Uplinks: make([]Uplink, n)}
	for i := range b.Uplinks {
		u := Uplink{Node: 1_000_000 + i, AtMs: 86_400_000 + int64(i), WindowMs: 600_000}
		for k := range 8 {
			u.Reports = append(u.Reports, WireReport{Ago: uint16(k), SoCQ: uint16(30_000 + 97*k + i)})
		}
		b.Uplinks[i] = u
	}
	return b
}
