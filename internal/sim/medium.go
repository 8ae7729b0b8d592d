package sim

import (
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// gwBits is a per-gateway flag set packed into 64-bit words, so the
// per-transmission reception state costs a few words instead of three
// []bool allocations per uplink.
type gwBits []uint64

func (b gwBits) get(g int) bool { return b[g>>6]&(1<<(uint(g)&63)) != 0 }
func (b gwBits) set(g int)      { b[g>>6] |= 1 << (uint(g) & 63) }

// Transmission is one uplink packet on the air, tracked from start to
// end for collision resolution at every gateway. The paper's system
// model allows "one or more gateways"; reception state is therefore kept
// per gateway and a packet is delivered if any gateway decodes it.
type Transmission struct {
	NodeID  int
	Channel int
	SF      lora.SpreadingFactor
	// PowerDBm is the received power at each gateway. The medium never
	// mutates or retains it past EndUplink, so callers may share one
	// slice across transmissions (the simulator reuses each node's
	// static per-gateway powers).
	PowerDBm []float64
	Start    simtime.Time
	End      simtime.Time

	corrupted gwBits // lost to co-SF interference or gateway downlink
	weak      gwBits // below receiver sensitivity
	unlocked  gwBits // no demodulator free / gateway deaf at start

	anyViable bool // at least one gateway could still decode
	begun     bool // passed through BeginUplink (per-gateway state valid)
	pooled    bool // owned by the medium's free list; recycled on EndUplink

	activeIdx int // position in Medium.active, for O(1) swap-remove
	bucketIdx int // position in its (channel, SF) bucket

	poolNext *Transmission
}

// ensureBits sizes and clears the per-gateway flag words; capacity is
// retained across reuses so pooled transmissions stop allocating after
// their first flight.
func (tx *Transmission) ensureBits(words int) {
	if cap(tx.weak) < words {
		tx.weak = make(gwBits, words)
		tx.corrupted = make(gwBits, words)
		tx.unlocked = make(gwBits, words)
		return
	}
	tx.weak = tx.weak[:words]
	tx.corrupted = tx.corrupted[:words]
	tx.unlocked = tx.unlocked[:words]
	for i := 0; i < words; i++ {
		tx.weak[i], tx.corrupted[i], tx.unlocked[i] = 0, 0, 0
	}
}

// bucketKey indexes active transmissions by (channel, SF): only co-channel
// co-SF signals interact under the capture model, so collision checks
// never need to scan the rest of the air.
func bucketKey(channel int, sf lora.SpreadingFactor) uint64 {
	return uint64(channel)<<8 | uint64(sf)
}

// Medium arbitrates the shared radio channel as the gateways perceive
// it: capture-based co-SF collisions per channel and per gateway, a
// demodulator budget of omega concurrent uplinks per gateway, and
// half-duplex deafness while a gateway transmits ACKs.
//
// Internally the air is indexed, not scanned: active transmissions live
// in per-(channel, SF) buckets, the per-gateway count of
// demodulator-holding uplinks is maintained incrementally, and ended
// Transmission objects are recycled through a free list. All decisions
// are byte-identical to a full rescan (see TestMediumEquivalence).
type Medium struct {
	bw       lora.Bandwidth
	omega    int
	gateways int
	words    int // gwBits words per flag set
	// sensBySF memoizes lora.Sensitivity at the medium's fixed
	// bandwidth for every valid SF; BeginUplink runs once per uplink
	// and the map-backed lookup showed up in profiles.
	sensBySF [lora.MaxSF + 1]float64

	active  []*Transmission
	buckets map[uint64][]*Transmission
	// locked[g] counts active uplinks holding one of gateway g's omega
	// demodulators (not weak, not unlocked there). Lock state is fixed
	// at BeginUplink and released at EndUplink, so the count never needs
	// a rescan.
	locked []int
	// viable counts active transmissions decodable somewhere.
	viable int

	gwTxEnd  []simtime.Time // actual downlink in progress, per gateway
	reserved []simtime.Time // promised downlink slots, per gateway

	decoded []int // reusable EndUplink result buffer
	freeTx  *Transmission

	// Observability handles; nil (no-op) unless SetObserver installed
	// them. obsOn gates the loss-classification scan so a disabled
	// recorder costs nothing beyond one bool check per uplink.
	obsOn                                                    bool
	cUplinks, cDecoded, cLostCollision, cLostBusy, cLostWeak *obs.Counter
}

// SetObserver attaches observability counters. A nil or disabled
// recorder leaves the medium un-instrumented.
func (m *Medium) SetObserver(r *obs.Recorder) {
	if !r.Enabled() {
		return
	}
	m.obsOn = true
	m.cUplinks = r.Counter("medium.uplinks")
	m.cDecoded = r.Counter("medium.uplinks_decoded")
	m.cLostCollision = r.Counter("medium.uplinks_lost_collision")
	m.cLostBusy = r.Counter("medium.uplinks_lost_busy")
	m.cLostWeak = r.Counter("medium.uplinks_lost_weak")
}

// NewMedium returns a medium for the given channel bandwidth, gateway
// demodulator count omega, and number of gateways (clamped to >= 1).
func NewMedium(bw lora.Bandwidth, omega int, gateways int) *Medium {
	if gateways < 1 {
		gateways = 1
	}
	m := &Medium{
		bw:       bw,
		omega:    omega,
		gateways: gateways,
		words:    (gateways + 63) / 64,
		buckets:  make(map[uint64][]*Transmission),
		locked:   make([]int, gateways),
		gwTxEnd:  make([]simtime.Time, gateways),
		reserved: make([]simtime.Time, gateways),
	}
	for sf := lora.MinSF; sf <= lora.MaxSF; sf++ {
		m.sensBySF[sf] = lora.Sensitivity(sf, bw)
	}
	return m
}

// Gateways returns the number of gateways.
func (m *Medium) Gateways() int { return m.gateways }

// NewTransmission returns a zero-cost Transmission from the free list
// (or a fresh one). The caller fills the exported fields and passes it
// to BeginUplink; EndUplink recycles it, so the caller must not touch
// the transmission afterwards. Hand-constructed Transmissions remain
// valid everywhere and are simply never recycled.
func (m *Medium) NewTransmission() *Transmission {
	if t := m.freeTx; t != nil {
		m.freeTx = t.poolNext
		t.poolNext = nil
		return t
	}
	return &Transmission{pooled: true}
}

// BeginUplink registers a transmission starting now. Collision state is
// updated immediately for the new signal and every overlapping one, at
// every gateway. tx.PowerDBm must have one entry per gateway.
func (m *Medium) BeginUplink(tx *Transmission) {
	tx.begun = true
	tx.anyViable = false
	tx.ensureBits(m.words)

	sens := m.sensBySF[tx.SF]
	key := bucketKey(tx.Channel, tx.SF)
	bkt := m.buckets[key]
	for g := 0; g < m.gateways; g++ {
		if tx.PowerDBm[g] < sens {
			// Below sensitivity at this gateway: never decodable there and
			// too faint to matter as interference.
			tx.weak.set(g)
			continue
		}
		// Half-duplex gateway: a signal arriving while the gateway
		// transmits cannot be preamble-locked.
		if m.gwTxEnd[g] > tx.Start {
			tx.unlocked.set(g)
		} else if m.locked[g] >= m.omega {
			// Demodulator budget: omega concurrent locked uplinks per
			// gateway.
			tx.unlocked.set(g)
		}
		if !tx.unlocked.get(g) {
			m.locked[g]++
		}
		// Co-channel, co-SF capture at this gateway; different SFs are
		// quasi-orthogonal, so only bucket members can interfere.
		for _, a := range bkt {
			if a.weak.get(g) {
				continue
			}
			if !radio.Captures(tx.PowerDBm[g], []float64{a.PowerDBm[g]}) {
				tx.corrupted.set(g)
			}
			if !radio.Captures(a.PowerDBm[g], []float64{tx.PowerDBm[g]}) {
				a.corrupted.set(g)
			}
		}
	}
	if m.viableAnywhere(tx) {
		tx.anyViable = true
		m.viable++
	}
	m.cUplinks.Inc()
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)
	tx.bucketIdx = len(bkt)
	m.buckets[key] = append(bkt, tx)
}

func (m *Medium) viableAnywhere(tx *Transmission) bool {
	for g := 0; g < m.gateways; g++ {
		if !tx.weak.get(g) {
			return true
		}
	}
	return false
}

// EndUplink removes the transmission and returns the gateways that
// decoded it, strongest signal first (empty when the packet was lost
// everywhere). Any of them can serve the ACK; callers fall back down
// the list when a gateway's downlink radio is booked. The returned
// slice is reused by the next EndUplink call; pooled transmissions are
// recycled, so neither may be retained.
func (m *Medium) EndUplink(tx *Transmission) []int {
	if !tx.begun {
		// Never begun (constructed by hand in tests): per-gateway state is
		// absent; treat as a clean single-gateway reception.
		m.decoded = append(m.decoded[:0], 0)
		return m.decoded
	}

	m.detach(tx)

	decoded := m.decoded[:0]
	for g := 0; g < m.gateways; g++ {
		if tx.weak.get(g) || tx.corrupted.get(g) || tx.unlocked.get(g) {
			continue
		}
		decoded = append(decoded, g)
	}
	// Insertion sort by descending power; skipped entirely for the
	// overwhelmingly common zero/one-gateway outcome.
	for i := 1; i < len(decoded); i++ {
		g := decoded[i]
		j := i - 1
		for j >= 0 && tx.PowerDBm[decoded[j]] < tx.PowerDBm[g] {
			decoded[j+1] = decoded[j]
			j--
		}
		decoded[j+1] = g
	}
	m.decoded = decoded

	if m.obsOn {
		if len(decoded) > 0 {
			m.cDecoded.Inc()
		} else {
			// Classify the loss by the best outcome any in-range gateway
			// offered: interference beats a busy demodulator beats a
			// signal too weak everywhere.
			var anyCorrupted, anyUnlocked bool
			for g := 0; g < m.gateways; g++ {
				if tx.weak.get(g) {
					continue
				}
				if tx.corrupted.get(g) {
					anyCorrupted = true
				}
				if tx.unlocked.get(g) {
					anyUnlocked = true
				}
			}
			switch {
			case anyCorrupted:
				m.cLostCollision.Inc()
			case anyUnlocked:
				m.cLostBusy.Inc()
			default:
				m.cLostWeak.Inc()
			}
		}
	}

	if tx.pooled {
		tx.begun = false
		tx.PowerDBm = nil
		tx.poolNext = m.freeTx
		m.freeTx = tx
	}
	return decoded
}

// detach removes the transmission from the active set, its
// (channel, SF) bucket, its demodulator locks, and the viability count.
func (m *Medium) detach(tx *Transmission) {
	// Swap-remove from the flat active list and from the (channel, SF)
	// bucket; both positions are tracked on the transmission.
	if last := len(m.active) - 1; tx.activeIdx <= last {
		moved := m.active[last]
		m.active[tx.activeIdx] = moved
		moved.activeIdx = tx.activeIdx
		m.active[last] = nil
		m.active = m.active[:last]
	}
	key := bucketKey(tx.Channel, tx.SF)
	if bkt := m.buckets[key]; len(bkt) > 0 {
		last := len(bkt) - 1
		moved := bkt[last]
		bkt[tx.bucketIdx] = moved
		moved.bucketIdx = tx.bucketIdx
		bkt[last] = nil
		m.buckets[key] = bkt[:last]
	}
	// Release this transmission's demodulator locks and viability count.
	for g := 0; g < m.gateways; g++ {
		if !tx.weak.get(g) && !tx.unlocked.get(g) {
			m.locked[g]--
		}
	}
	if tx.anyViable {
		m.viable--
	}
}

// ReserveDownlink atomically claims gateway gw's radio for [start, end):
// it returns false when an earlier reservation or transmission still
// holds that radio at start. The caller must later invoke BeginDownlink
// at the reserved start.
func (m *Medium) ReserveDownlink(gw int, start, end simtime.Time) bool {
	if m.reserved[gw] > start || m.gwTxEnd[gw] > start {
		return false
	}
	m.reserved[gw] = end
	return true
}

// BeginDownlink marks gateway gw as transmitting until the given
// instant. A single-radio gateway cannot receive while transmitting, so
// every uplink currently on the air loses that gateway (it may still be
// decoded elsewhere).
func (m *Medium) BeginDownlink(gw int, until simtime.Time) {
	if until > m.gwTxEnd[gw] {
		m.gwTxEnd[gw] = until
	}
	for _, a := range m.active {
		a.corrupted.set(gw)
	}
}

// ActiveUplinks returns the number of transmissions currently on the
// air that at least one gateway could still decode.
func (m *Medium) ActiveUplinks() int { return m.viable }
