package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/config"
	"repro/internal/lns"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// The lns-fleet traffic is the replay make lns-smoke runs, scaled up: a
// simulator run's obs export, parsed by lns.ParseObsJSONL and packed by
// lns.BuildBatches with cmd/loadgen's defaults (window = the export's
// sampling period, 8 reports per uplink, 64 uplinks per request).
const fleetDays = 2

// fleetScenario is the simulator run whose export is replayed: the
// city-day network for two days, so the stream crosses a recompute
// boundary.
func fleetScenario(seed uint64) config.Scenario {
	cfg := cityDay(seed)
	cfg.Duration = fleetDays * simtime.Day
	return cfg
}

// lnsWorkload replays one fleet stream through a new daemon per
// repetition, the way cmd/loadgen drives cmd/lnsd with their default
// flags: one shard, the default queue depth, one closed-loop client
// posting each request after the previous one was answered, and one
// final recompute an interval after the last uplink. Set-up is starting
// the daemon and registering the fleet; each operation is one
// POST /v1/uplinks, timed by the client. After each repetition the
// daemon's w_u table and snapshot must equal, byte for byte, the
// library replay's (loadgen -local).
type lnsWorkload struct {
	in *fleetInputs
}

// fleetInputs is the run's traffic and its reference outputs.
type fleetInputs struct {
	regBody  []byte
	bodies   [][]byte
	finalAt  simtime.Time
	uplinks  int
	wantWu   []byte
	wantSnap []byte
}

// buildFleet simulates the fleet scenario with observability on and
// turns its export into request bodies and reference outputs.
func buildFleet(seed uint64) (*fleetInputs, error) {
	rec := obs.New(obs.Manifest{Tool: "perfbench"}, 0)
	s, err := sim.New(fleetScenario(seed), sim.Hooks{Obs: rec})
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	var export bytes.Buffer
	if err := rec.WriteJSONL(&export); err != nil {
		return nil, err
	}
	trace, err := lns.ParseObsJSONL(&export)
	if err != nil {
		return nil, err
	}
	batches := lns.BuildBatches(trace, 0, 0, 0)
	in := &fleetInputs{finalAt: lns.LastUplinkAt(batches).Add(simtime.Day)}
	reg := lns.RegisterReq{Nodes: make([]lns.RegisterNode, 0, len(trace.Nodes))}
	for _, nt := range trace.Nodes {
		reg.Nodes = append(reg.Nodes, lns.RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
	}
	if in.regBody, err = json.Marshal(reg); err != nil {
		return nil, err
	}
	for _, b := range batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.uplinks += len(b.Uplinks)
	}
	srv, err := lns.ReplayLocalRange(lns.Config{}, trace, batches, true, in.finalAt)
	if err != nil {
		return nil, err
	}
	var wu bytes.Buffer
	if err := lns.WriteWuTable(&wu, srv.WuTable()); err != nil {
		return nil, err
	}
	in.wantWu = wu.Bytes()
	if in.wantSnap, err = json.Marshal(srv.Snapshot()); err != nil {
		return nil, err
	}
	in.wantSnap = append(in.wantSnap, '\n')
	return in, nil
}

// post sends one request and drains the response, so the connection
// is reused by the next request.
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// get returns a response body, which must come with 200 OK.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

func (w *lnsWorkload) rep(m *meter, seed uint64, i int) error {
	if w.in == nil {
		var err error
		harness(func() { w.in, err = buildFleet(seed) })
		if err != nil {
			return err
		}
	}
	in := w.in
	t0 := time.Now()
	d, err := lns.NewDaemon(lns.Config{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(d.Handler())
	defer d.Close()
	defer ts.Close()
	client := ts.Client()
	if code, err := post(client, ts.URL+"/v1/register", in.regBody); err != nil || code != http.StatusOK {
		return fmt.Errorf("register: status %d: %v", code, err)
	}
	setup := time.Since(t0)

	a0 := allocated()
	t1 := time.Now()
	lat := make([]float64, 0, len(in.bodies))
	for _, body := range in.bodies {
		start := time.Now()
		code, err := post(client, ts.URL+"/v1/uplinks", body)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("uplinks: status %d", code)
		}
		if err != nil {
			m.attempted += len(lat) + 1
			m.failed++
			return err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
	}
	busy := time.Since(t1)
	allocB := allocated() - a0
	m.attempted += len(lat)

	tb := time.Now()
	rc, err := json.Marshal(lns.RecomputeReq{AtMs: int64(in.finalAt)})
	if err != nil {
		return err
	}
	if code, err := post(client, ts.URL+"/v1/recompute", rc); err != nil || code != http.StatusOK {
		return fmt.Errorf("recompute: status %d: %v", code, err)
	}
	barrier := time.Since(tb)
	for _, out := range []struct {
		path string
		want []byte
	}{{"/v1/wu", in.wantWu}, {"/v1/snapshot", in.wantSnap}} {
		got, err := get(client, ts.URL+out.path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, out.want) {
			m.failed += len(lat)
			return fmt.Errorf("daemon %s differs from the library replay", out.path)
		}
	}

	m.setups = append(m.setups, setup.Seconds())
	m.ops = append(m.ops, lat...)
	m.busy += busy
	m.uplinks += int64(in.uplinks)
	m.allocB += allocB
	rec := d.Recorder()
	for name, counter := range map[string]string{
		"lns.apply_ns":         "lns.ingest_ns_total",
		"lns.batches":          "lns.batches_applied",
		"lns.recompute_ns":     "lns.recompute_ns_total",
		"lns.recomputes":       "lns.recomputes",
		"netserver.packets":    "netserver.packets_ingested",
		"netserver.recomputes": "netserver.recomputes",
	} {
		m.count(name, float64(rec.Counter(counter).Value()))
	}
	m.count("lns.barrier_ns", float64(barrier.Nanoseconds()))
	m.count("lns.barriers", 1)
	return nil
}

// verify is a no-op: every repetition already compared the daemon's
// outputs with the library replay.
func (w *lnsWorkload) verify(uint64) error { return nil }
