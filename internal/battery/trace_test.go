package battery

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestEncodeDecodeTransition(t *testing.T) {
	window := simtime.Minute
	packetAt := simtime.Time(100 * simtime.Minute)
	tr := Transition{At: simtime.Time(97 * simtime.Minute), SoC: 0.42}

	r := EncodeTransition(tr, packetAt, window)
	if r.WindowsAgo != 3 {
		t.Errorf("WindowsAgo = %d, want 3", r.WindowsAgo)
	}
	got := r.Decode(packetAt, window)
	if got.At != tr.At {
		t.Errorf("decoded time %v, want %v", got.At, tr.At)
	}
	if math.Abs(got.SoC-tr.SoC) > 1.0/math.MaxUint16 {
		t.Errorf("decoded SoC %v, want %v within quantization", got.SoC, tr.SoC)
	}
}

func TestEncodeTransitionClamps(t *testing.T) {
	window := simtime.Minute
	packetAt := simtime.Time(10 * simtime.Minute)

	// A transition "in the future" (clock skew) encodes as zero windows ago.
	future := Transition{At: packetAt.Add(simtime.Hour), SoC: 0.5}
	if r := EncodeTransition(future, packetAt, window); r.WindowsAgo != 0 {
		t.Errorf("future transition WindowsAgo = %d, want 0", r.WindowsAgo)
	}

	// Very old transitions saturate.
	old := Transition{At: 0, SoC: 0.5}
	farFuture := simtime.Time(100000 * simtime.Minute)
	if r := EncodeTransition(old, farFuture, window); r.WindowsAgo != math.MaxUint16 {
		t.Errorf("old transition WindowsAgo = %d, want saturation", r.WindowsAgo)
	}

	// Out-of-range SoC is clamped.
	if r := EncodeTransition(Transition{At: 0, SoC: 1.7}, 0, window); r.SoCQ != math.MaxUint16 {
		t.Errorf("SoC 1.7 quantized to %d, want max", r.SoCQ)
	}
	if r := EncodeTransition(Transition{At: 0, SoC: -0.2}, 0, window); r.SoCQ != 0 {
		t.Errorf("SoC -0.2 quantized to %d, want 0", r.SoCQ)
	}
}

// TestEncodeTransitionRetransmissionStable: a transition report carried
// by a retry packet sent at a later time must decode to the same
// window-aligned instant as the original, so the gateway's duplicate
// guard can recognize it. This holds because the offset is a difference
// of absolute window indices, not of raw times.
func TestEncodeTransitionRetransmissionStable(t *testing.T) {
	window := simtime.Minute
	tr := Transition{At: simtime.Time(97*simtime.Minute + 13*simtime.Second), SoC: 0.42}

	first := simtime.Time(100*simtime.Minute + 7*simtime.Second)
	decoded := EncodeTransition(tr, first, window).Decode(first, window)

	// Retries at arbitrary (non-window-aligned) later times.
	for _, delay := range []simtime.Duration{
		3 * simtime.Second,
		41 * simtime.Second,
		2*simtime.Minute + 59*simtime.Second,
		17 * simtime.Minute,
	} {
		retry := first.Add(delay)
		again := EncodeTransition(tr, retry, window).Decode(retry, window)
		if again != decoded {
			t.Errorf("retry at +%v decoded %+v, original %+v", delay, again, decoded)
		}
	}

	// The decoded instant is the start of the transition's window.
	if want := simtime.Time(97 * simtime.Minute); decoded.At != want {
		t.Errorf("decoded At = %v, want window start %v", decoded.At, want)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(raws []uint32) bool {
		reports := make([]Report, len(raws))
		for i, r := range raws {
			reports[i] = Report{WindowsAgo: uint16(r >> 16), SoCQ: uint16(r)}
		}
		data := MarshalReports(reports)
		if len(data) != len(reports)*ReportSize {
			return false
		}
		back, err := UnmarshalReports(data)
		if err != nil || len(back) != len(reports) {
			return false
		}
		for i := range back {
			if back[i] != reports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalReportsBadLength(t *testing.T) {
	if _, err := UnmarshalReports(make([]byte, 5)); err == nil {
		t.Error("length 5 should fail")
	}
	if got, err := UnmarshalReports(nil); err != nil || len(got) != 0 {
		t.Errorf("empty payload: %v, %v", got, err)
	}
}

// TestGatewayReconstructionAccuracy feeds a battery's quantized transition
// reports into a gateway-side tracker and checks the recomputed
// degradation tracks the ground truth closely (the paper's premise that
// 4-byte reports suffice).
func TestGatewayReconstructionAccuracy(t *testing.T) {
	b := newTestBattery(t, 10, 0.9)
	gw := NewTracker(DefaultModel(), 25)
	gw.Push(0.9)

	window := simtime.Minute
	var now simtime.Time
	for day := 0; day < 200; day++ {
		now = simtime.Time(day) * simtime.Time(simtime.Day)
		b.Discharge(now, 1.5+0.5*float64(day%3))
		b.Charge(now.Add(10*simtime.Hour), 3)
		// The node reports its transitions on its next packet.
		packetAt := now.Add(11 * simtime.Hour)
		for _, tr := range b.AppendTransitions(nil) {
			report := EncodeTransition(tr, packetAt, window)
			gw.Push(report.Decode(packetAt, window).SoC)
		}
	}

	truth := b.Damage(now)
	est := gw.Damage(simtime.Duration(now))
	if truth.Total <= 0 {
		t.Fatal("expected non-zero ground-truth degradation")
	}
	relErr := math.Abs(est.Total-truth.Total) / truth.Total
	if relErr > 0.02 {
		t.Errorf("gateway estimate %v vs truth %v: relative error %.3f > 2%%", est.Total, truth.Total, relErr)
	}
}
