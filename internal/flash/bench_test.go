package flash

import (
	"testing"

	"hams/internal/sim"
)

// benchPayloads names the two page contents the datapath distinguishes:
// an all-zero page (held elided) and a page of real data.
func benchPayloads(n uint64) map[string][]byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i) | 1
	}
	return map[string][]byte{"zero": make([]byte, n), "data": data}
}

// BenchmarkProgramPage measures a page program (timing plus payload
// store), erasing each block once its pages are used so the array
// reaches steady state.
func BenchmarkProgramPage(b *testing.B) {
	for _, name := range []string{"zero", "data"} {
		b.Run(name, func(b *testing.B) {
			g := smallGeo()
			a := New(g, ZNAND())
			payload := benchPayloads(g.PageBytes)[name]
			pages := PPN(g.TotalPages())
			var now sim.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := PPN(i) % pages
				if a.Written(p) {
					now = a.EraseBlock(now, p)
				}
				d, err := a.ProgramPage(now, p, payload)
				if err != nil {
					b.Fatal(err)
				}
				now = d
			}
		})
	}
}

// BenchmarkReadPageInto measures a timed page read into caller scratch.
func BenchmarkReadPageInto(b *testing.B) {
	for _, name := range []string{"zero", "data"} {
		b.Run(name, func(b *testing.B) {
			g := smallGeo()
			a := New(g, ZNAND())
			const pages = 256
			for p := PPN(0); p < pages; p++ {
				a.ProgramPage(0, p, benchPayloads(g.PageBytes)[name])
			}
			dst := make([]byte, g.PageBytes)
			var now sim.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ = a.ReadPageInto(now, PPN(i)%pages, 0, dst)
			}
		})
	}
}
