// Package lns stands the network server (internal/netserver) up as a
// deployable LNS-style daemon: HTTP(+JSON) uplink ingest sharded by
// node-ID range (one private netserver.Server sub-fleet per worker
// lane, bounded queues, explicit backpressure), fleet-wide w_u
// recomputation at barriers on the virtual clock carried by the
// traffic itself, snapshot/restore of the full per-node degradation
// state, and ingest/recompute metrics through internal/obs.
//
// The package is a library so the daemon core is testable and
// benchmarkable in-process; cmd/lnsd is the thin binary around it and
// cmd/loadgen the replay client. The correctness contract is
// exactness: a report stream driven through the HTTP path must leave
// the fleet in a state byte-identical to direct library Ingest calls
// (ReplayBatch is the single shared apply path, and barrier recomputes
// make the result a pure function of each node's sub-stream plus the
// merged clock — independent of shard count and cross-shard
// interleaving), and a snapshot → restart → resume run must match an
// uninterrupted one exactly.
package lns

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"repro/internal/netserver"
)

// WireReport is one SoC transition report in JSON wire form, mirroring
// the 4-byte on-air encoding (battery.Report): a window-offset age and a
// 16-bit quantized SoC.
type WireReport struct {
	// Ago is how many whole forecast windows before the packet's
	// transmission the transition occurred.
	Ago uint16 `json:"ago"`
	// SoCQ is the state of charge quantized to 1/65535 steps.
	SoCQ uint16 `json:"soc_q"`
}

// Uplink is one device uplink: the reports it piggy-backs plus the
// reception instant and the node's forecast-window length needed to
// decode them. Times are simulated milliseconds — the daemon runs on
// the virtual clock carried by the traffic, never the wall clock.
type Uplink struct {
	Node     int          `json:"node"`
	AtMs     int64        `json:"at_ms"`
	WindowMs int64        `json:"window_ms"`
	Reports  []WireReport `json:"reports,omitempty"`
}

// Batch is the body of POST /v1/uplinks: uplinks applied in order as
// one queue entry.
type Batch struct {
	Uplinks []Uplink `json:"uplinks"`
}

// decodeBatch reads a POST /v1/uplinks body from r to its end and
// parses it in one pass, without reflection. size is the body's
// declared length, or -1 when it is unknown. It accepts a strict subset
// of what encoding/json decodes into a Batch: everything
// json.Marshal(Batch) writes, with JSON whitespace anywhere and keys in
// any order, and nothing else —
//
//   - exact-case known keys only, written without escapes, each at most
//     once per object;
//   - integers only, in the JSON grammar (no fraction, exponent or
//     leading zero) and the field's range; ago and soc_q take no sign;
//   - no null, no strings, nothing but whitespace after the object.
//
// The result never aliases the read buffer. It takes two allocations,
// the []Uplink and one flat []WireReport that every uplink's Reports is
// a full slice expression of; as with json.Unmarshal, Reports is
// non-nil exactly when the uplink has a "reports" array, and Uplinks
// exactly when the body has an "uplinks" array.
func decodeBatch(r io.Reader, size int64) (Batch, error) {
	p := batchParsers.Get().(*batchParser)
	defer p.release()
	if err := p.read(r, size); err != nil {
		return Batch{}, err
	}
	return p.parse()
}

// maxPooledBytes bounds what a pooled parser keeps, read buffer and
// scratch together. The largest batches in this tree, the 4096-uplink,
// eight-report bodies of BenchmarkLNSIngestSharded, take 1.1 MB of
// buffer and 0.3 MB of scratch at seven-digit node IDs; loadgen's
// 64-uplink bodies take under 20 KB. A parser grown past the bound by
// an outsized body is left to the collector.
const maxPooledBytes = 4 << 20

var batchParsers = sync.Pool{New: func() any { return new(batchParser) }}

// batchParser is decodeBatch's read buffer, cursor and scratch. The
// scratch holds the decoded values until their counts are known; the
// Batch is then built in exact-size allocations, so nothing the parser
// owns reaches the shard lanes and it is free for reuse as soon as
// decodeBatch returns.
type batchParser struct {
	b       []byte
	i       int
	ups     []parsedUplink
	reports []WireReport
}

// parsedUplink is an Uplink whose reports are the next `reports`
// entries of the scratch; -1 means the body had no "reports" array.
type parsedUplink struct {
	node           int
	atMs, windowMs int64
	reports        int
}

// read fills the parser's buffer with r's bytes up to io.EOF. A
// declared size sizes the buffer once, one byte over so that the read
// which meets io.EOF needs no growth; the up-front size stops at
// maxPooledBytes, so a client that declares a huge body and sends none
// of it is not given the memory in advance.
func (p *batchParser) read(r io.Reader, size int64) error {
	want := 512
	if size >= 0 {
		want = int(min(size, maxPooledBytes)) + 1
	}
	b := p.b[:0]
	if cap(b) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			p.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// release returns the parser to the pool unless it outgrew
// maxPooledBytes.
func (p *batchParser) release() {
	kept := cap(p.b) + cap(p.ups)*int(unsafe.Sizeof(parsedUplink{})) + cap(p.reports)*int(unsafe.Sizeof(WireReport{}))
	if kept <= maxPooledBytes {
		batchParsers.Put(p)
	}
}

func (p *batchParser) parse() (Batch, error) {
	p.i = 0
	p.ups, p.reports = p.ups[:0], p.reports[:0]
	found, err := p.batch()
	if err != nil || !found {
		return Batch{}, err
	}
	ups := make([]Uplink, len(p.ups))
	flat := make([]WireReport, len(p.reports))
	copy(flat, p.reports)
	off := 0
	for i, u := range p.ups {
		ups[i] = Uplink{Node: u.node, AtMs: u.atMs, WindowMs: u.windowMs}
		if u.reports >= 0 {
			end := off + u.reports
			ups[i].Reports = flat[off:end:end]
			off = end
		}
	}
	return Batch{Uplinks: ups}, nil
}

// batch parses the whole body; found reports an "uplinks" array.
func (p *batchParser) batch() (found bool, err error) {
	err = p.object(func(key []byte) (uint8, error) {
		if string(key) != "uplinks" {
			return 0, p.unknown(key)
		}
		found = true
		return 1, p.array(p.uplink)
	})
	if err != nil {
		return false, err
	}
	p.ws()
	if p.i != len(p.b) {
		return false, p.fail("data after the batch object")
	}
	return found, nil
}

func (p *batchParser) uplink() error {
	u := parsedUplink{reports: -1}
	err := p.object(func(key []byte) (bit uint8, err error) {
		switch string(key) {
		case "node":
			var v int64
			v, err = p.int(math.MinInt, math.MaxInt)
			u.node = int(v)
			return 1, err
		case "at_ms":
			u.atMs, err = p.int(math.MinInt64, math.MaxInt64)
			return 2, err
		case "window_ms":
			u.windowMs, err = p.int(math.MinInt64, math.MaxInt64)
			return 4, err
		case "reports":
			n := len(p.reports)
			err = p.array(p.report)
			u.reports = len(p.reports) - n
			return 8, err
		}
		return 0, p.unknown(key)
	})
	p.ups = append(p.ups, u)
	return err
}

func (p *batchParser) report() error {
	var r WireReport
	err := p.object(func(key []byte) (uint8, error) {
		var dst *uint16
		var bit uint8
		switch string(key) {
		case "ago":
			dst, bit = &r.Ago, 1
		case "soc_q":
			dst, bit = &r.SoCQ, 2
		default:
			return 0, p.unknown(key)
		}
		v, err := p.int(0, math.MaxUint16)
		*dst = uint16(v)
		return bit, err
	})
	p.reports = append(p.reports, r)
	return err
}

// object parses one object. field is called with the cursor on each
// key's value; it consumes the value and returns the key's bit, which
// must not repeat within the object.
func (p *batchParser) object(field func(key []byte) (uint8, error)) error {
	if err := p.open('{'); err != nil {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		key, more, err := p.member(first)
		if err != nil || !more {
			return err
		}
		bit, err := field(key)
		if err != nil {
			return err
		}
		if seen&bit != 0 {
			return p.fail(fmt.Sprintf("repeated key %q", key))
		}
		seen |= bit
	}
}

// array parses one array, calling elem with the cursor on each element.
func (p *batchParser) array(elem func() error) error {
	if err := p.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := p.element(first)
		if err != nil || !more {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// ws skips JSON whitespace.
func (p *batchParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// open consumes the opening bracket or brace c.
func (p *batchParser) open(c byte) error {
	p.ws()
	if p.i == len(p.b) || p.b[p.i] != c {
		return p.fail(fmt.Sprintf("expected %q", c))
	}
	p.i++
	return nil
}

// member advances to the next key of an object, consuming the key and
// its colon; more is false once the closing brace is consumed.
func (p *batchParser) member(first bool) (key []byte, more bool, err error) {
	p.ws()
	if p.i == len(p.b) {
		return nil, false, p.fail("unexpected end of body")
	}
	if p.b[p.i] == '}' {
		p.i++
		return nil, false, nil
	}
	if !first {
		if p.b[p.i] != ',' {
			return nil, false, p.fail("expected ',' or '}'")
		}
		p.i++
		p.ws()
	}
	if p.i == len(p.b) || p.b[p.i] != '"' {
		return nil, false, p.fail("expected a key")
	}
	start := p.i + 1
	n := bytes.IndexByte(p.b[start:], '"')
	if n < 0 {
		return nil, false, p.fail("unterminated key")
	}
	key = p.b[start : start+n]
	if bytes.IndexByte(key, '\\') >= 0 {
		return nil, false, p.fail("escaped key")
	}
	p.i = start + n + 1
	p.ws()
	if p.i == len(p.b) || p.b[p.i] != ':' {
		return nil, false, p.fail("expected ':'")
	}
	p.i++
	p.ws()
	return key, true, nil
}

// element advances to the next value of an array; more is false once
// the closing bracket is consumed.
func (p *batchParser) element(first bool) (more bool, err error) {
	p.ws()
	if p.i == len(p.b) {
		return false, p.fail("unexpected end of body")
	}
	if p.b[p.i] == ']' {
		p.i++
		return false, nil
	}
	if !first {
		if p.b[p.i] != ',' {
			return false, p.fail("expected ',' or ']'")
		}
		p.i++
	}
	return true, nil
}

// int parses a JSON integer in [lo, hi]. A minus sign is an error when
// lo is 0, even on zero.
func (p *batchParser) int(lo, hi int64) (int64, error) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	limit := uint64(hi)
	if neg {
		if lo == 0 {
			return 0, p.fail("negative value")
		}
		i++
		limit = uint64(-(lo + 1)) + 1
	}
	start := i
	var mag uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if mag > (limit-d)/10 {
			return 0, p.fail("integer out of range")
		}
		mag = mag*10 + d
	}
	switch {
	case i == start:
		return 0, p.fail("expected an integer")
	case b[start] == '0' && i-start > 1:
		return 0, p.fail("integer with a leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, p.fail("expected an integer, not a fraction or exponent")
	}
	p.i = i
	if neg {
		return int64(-mag), nil
	}
	return int64(mag), nil
}

func (p *batchParser) fail(msg string) error {
	return fmt.Errorf("uplinks body: offset %d: %s", p.i, msg)
}

func (p *batchParser) unknown(key []byte) error {
	return p.fail(fmt.Sprintf("unknown key %q", key))
}

// RegisterNode is one entry of a registration request. Rejoin selects
// the history-preserving re-admission (netserver.Rejoin) for a node
// that restarted; a plain register on a live node resets its
// degradation history AND ingestion watermarks (battery-replacement
// semantics), so replaying clients must never re-register mid-stream.
type RegisterNode struct {
	Node   int     `json:"node"`
	SoC    float64 `json:"soc"`
	Rejoin bool    `json:"rejoin,omitempty"`
}

// RegisterReq is the body of POST /v1/register.
type RegisterReq struct {
	Nodes []RegisterNode `json:"nodes"`
}

// RecomputeReq is the body of POST /v1/recompute: force the due check
// at a given virtual instant (e.g. end of a replayed trace).
type RecomputeReq struct {
	AtMs int64 `json:"at_ms"`
}

// RecomputeResp reports whether the recompute actually ran.
type RecomputeResp struct {
	Ran bool `json:"ran"`
}

// IngestResp is the body of a 202 from POST /v1/uplinks.
type IngestResp struct {
	Queued int `json:"queued"`
}

// WriteWuTable writes the disseminated w_u table as deterministic JSON:
// one array, nodes ascending, one trailing newline. Two servers in the
// same state produce byte-identical output — the comparison primitive
// used by loadgen -local, the idempotence tests, and the CI smoke.
func WriteWuTable(w io.Writer, table []netserver.NodeWu) error {
	return json.NewEncoder(w).Encode(table)
}
