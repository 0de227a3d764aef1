package wire_test

import (
	"testing"

	"repro/internal/wire"
)

// BenchmarkPlanCodecW2 encodes and decodes the snapshot of a 1 000-query
// Workload 2 plan, the plan a cluster worker decodes at Dial.
func BenchmarkPlanCodecW2(b *testing.B) {
	snap := w2Physical(b, 1000).Snapshot()
	p, err := wire.EncodePlanBytes(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodePlanBytes(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodePlanBytes(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFingerprintW2 fingerprints a 1 000-query Workload 2 plan, which
// a cluster coordinator and each of its workers do on every live add or
// remove.
func BenchmarkFingerprintW2(b *testing.B) {
	p := w2Physical(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fingerprint()
	}
}
