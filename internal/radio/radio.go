// Package radio models LoRa signal propagation and reception: the
// log-distance path-loss model with static per-link shadowing, link-budget
// based spreading-factor assignment, and the co-SF capture rule used to
// resolve collisions. Parameters default to the Oulu LoRa measurement
// campaign, the standard choice for suburban LoRa studies (and NS-3's).
package radio

import (
	"fmt"
	"math"

	"repro/internal/lora"
)

// Position is a node location in meters; the gateway sits at the origin.
type Position struct {
	X float64
	Y float64
}

// DistanceTo returns the Euclidean distance in meters.
func (p Position) DistanceTo(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Position) String() string { return fmt.Sprintf("(%.0fm,%.0fm)", p.X, p.Y) }

// PathLoss is a log-distance path-loss model with deterministic per-link
// lognormal shadowing.
type PathLoss struct {
	// RefLossDB is the path loss at the 1 km reference distance.
	RefLossDB float64
	// Exponent is the path-loss exponent.
	Exponent float64
	// ShadowStdDB is the standard deviation of the static per-link
	// shadowing in dB.
	ShadowStdDB float64
	// Seed makes shadowing deterministic per scenario.
	Seed uint64
}

// DefaultPathLoss returns the Oulu-campaign suburban parameters with
// mild static shadowing.
func DefaultPathLoss(seed uint64) PathLoss {
	return PathLoss{
		RefLossDB:   128.95,
		Exponent:    2.32,
		ShadowStdDB: 3,
		Seed:        seed,
	}
}

// MeanLossDB returns the distance-dependent loss without shadowing, for
// a distance in meters (clamped below at 1 m).
func (m PathLoss) MeanLossDB(distanceM float64) float64 {
	if distanceM < 1 {
		distanceM = 1
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(distanceM/1000)
}

// ShadowingDB returns the static shadowing of the given link in dB,
// deterministic in (seed, linkID). Shadowing is drawn once per link
// because nodes are stationary.
func (m PathLoss) ShadowingDB(linkID uint64) float64 {
	if m.ShadowStdDB == 0 {
		return 0
	}
	// Box-Muller on two deterministic uniforms.
	u1 := hash01(m.Seed, linkID, 0xa11ce)
	u2 := hash01(m.Seed, linkID, 0xb0b5)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return m.ShadowStdDB * z
}

// RxPowerDBm returns the received power at the origin gateway for a
// transmitter at the given position with the given RF output power.
func (m PathLoss) RxPowerDBm(txDBm float64, pos Position, linkID uint64) float64 {
	return m.RxPowerBetweenDBm(txDBm, pos, Position{}, linkID)
}

// RxPowerBetweenDBm returns the received power over an arbitrary link;
// linkID must be unique per (transmitter, receiver) pair so each link
// gets its own static shadowing.
func (m PathLoss) RxPowerBetweenDBm(txDBm float64, from, to Position, linkID uint64) float64 {
	return txDBm - m.MeanLossDB(from.DistanceTo(to)) + m.ShadowingDB(linkID)
}

// GatewayLayout places n gateways: the first at the origin, the rest
// evenly spaced on a ring at 60% of the deployment radius — the usual
// way extra gateways densify a LoRa deployment.
func GatewayLayout(n int, deploymentRadiusM float64) []Position {
	if n < 1 {
		n = 1
	}
	out := make([]Position, n)
	ring := 0.6 * deploymentRadiusM
	for i := 1; i < n; i++ {
		angle := 2 * math.Pi * float64(i-1) / float64(n-1)
		out[i] = Position{X: ring * math.Cos(angle), Y: ring * math.Sin(angle)}
	}
	return out
}

// AssignSF returns the smallest spreading factor whose receiver
// sensitivity leaves at least marginDB of link margin for the given
// received power, mirroring LoRaWAN ADR. ok is false when even SF12 has
// insufficient margin (the node is out of range).
func AssignSF(rxPowerDBm, marginDB float64, bw lora.Bandwidth) (sf lora.SpreadingFactor, ok bool) {
	for sf = lora.MinSF; sf <= lora.MaxSF; sf++ {
		if rxPowerDBm >= lora.Sensitivity(sf, bw)+marginDB {
			return sf, true
		}
	}
	return lora.MaxSF, false
}

// CaptureThresholdDB is the minimum power advantage a LoRa signal needs
// over the strongest co-SF interferer to be captured.
const CaptureThresholdDB = 6

// Captures reports whether a signal at the given power survives the
// given co-channel, co-SF interferer powers under the capture model.
func Captures(powerDBm float64, interferersDBm []float64) bool {
	for _, i := range interferersDBm {
		if powerDBm < i+CaptureThresholdDB {
			return false
		}
	}
	return true
}

// hash01 maps (seed, a, b) to a uniform float64 in [0,1) via splitmix64.
func hash01(seed, a, b uint64) float64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
