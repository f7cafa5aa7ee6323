package protocol

import "testing"

// BenchmarkReportCodec times one encode plus one decode of the two
// messages a broadcast or coordinator round sends: a Report, and an
// Update carrying a 16-node delta vector.
func BenchmarkReportCodec(b *testing.B) {
	rep := Report{Round: 70, Node: 3, Marginal: -2.9387528349794507, Alloc: 0.0625, Curvature: -0.5, Planned: 0xFFFF}
	delta := make([]float64, 16)
	for i := range delta {
		delta[i] = (float64(i) - 7.5) / 3e4
	}
	upd := Update{Round: 70, Delta: delta}
	b.Run("report", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := EncodeReport(rep)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := EncodeUpdate(upd)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
