package battery

import (
	"encoding/binary"
	"testing"

	"repro/internal/simtime"
)

// FuzzCounterMatchesRainflow checks the incremental rainflow machinery
// against its references on any SoC sequence. The input is read as
// big-endian uint16 samples scaled to [0,1] — every SoC a battery can
// report, with repeats likely — and after every push:
//
//   - the cycles the counter retired plus its pending cycles equal batch
//     Rainflow over the whole prefix, up to ordering;
//   - the tracker's aggregates, served from the residue prefix cache
//     whenever the pending probe retires nothing, are bit-identical to
//     folding the closed aggregates with the AppendPending walk, and so
//     is the Damage breakdown built from them.
//
// Run it beyond the seed corpus with
//
//	go test -run '^$' -fuzz FuzzCounterMatchesRainflow -fuzztime 10s ./internal/battery
func FuzzCounterMatchesRainflow(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0xf0, 0x00, 0x20, 0x00, 0xe0, 0x00, 0x30, 0x00})
	f.Add([]byte{0x80, 0x00, 0x80, 0x00, 0x90, 0x00, 0x90, 0x00, 0x70, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSamples = 512
		var retired []Cycle
		var c Counter
		c.OnCycle = func(cy Cycle) { retired = append(retired, cy) }
		model := DefaultModel()
		tr := NewTracker(model, 25)
		var hist []float64
		for i := 0; i+1 < len(data) && len(hist) < maxSamples; i += 2 {
			v := float64(binary.BigEndian.Uint16(data[i:])) / 65535
			hist = append(hist, v)
			c.Push(v)
			tr.Push(v)

			got := append(append([]Cycle(nil), retired...), c.PendingCycles()...)
			if want := Rainflow(hist); !sameCycles(got, want) {
				t.Fatalf("after %d samples: incremental cycles %v, batch Rainflow %v", len(hist), got, want)
			}

			age := simtime.Duration(len(hist)) * simtime.Hour
			b := tr.Damage(age)
			walk := tr.closed
			for _, cy := range tr.counter.AppendPending(nil) {
				walk.add(cy)
			}
			meanPhi := walk.meanPhi(tr.counter.last)
			if !bitsEqual(tr.aggRaw, walk.raw) || !bitsEqual(tr.aggWeight, walk.weight) || !bitsEqual(tr.aggMeanPhi, meanPhi) {
				t.Fatalf("after %d samples: cached aggregates (%v, %v, %v), walk (%v, %v, %v)",
					len(hist), tr.aggRaw, tr.aggMeanPhi, tr.aggWeight, walk.raw, meanPhi, walk.weight)
			}
			var want Breakdown
			want.MeanSoC, want.Cycles = meanPhi, walk.weight
			want.Calendar = model.CalendarAging(age, 25, meanPhi)
			want.Cycle = walk.raw * model.K6 * model.TempStress(25)
			want.Linear = want.Calendar + want.Cycle
			want.Total = model.Nonlinear(want.Linear)
			if !bitsEqual(b.Calendar, want.Calendar) || !bitsEqual(b.Cycle, want.Cycle) || !bitsEqual(b.Total, want.Total) ||
				!bitsEqual(b.MeanSoC, want.MeanSoC) || !bitsEqual(b.Cycles, want.Cycles) {
				t.Fatalf("after %d samples: Damage %+v, walk %+v", len(hist), b, want)
			}
		}
	})
}
