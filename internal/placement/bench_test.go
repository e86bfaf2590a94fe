package placement_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkIndexAll measures the per-run index plans of the paper's L1s
// over tblook01's real line tables: each iteration reseeds both levels'
// policies and maps the instruction and data lines, as a campaign run
// does. It reports ns/line, the ledger's placement.indexall_ns_per_line.
func BenchmarkIndexAll(b *testing.B) {
	w, err := workload.ByName("tblook01")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range placement.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := core.PaperPlatform(kind).Config()
			ct, err := trace.Compile(w.Build(workload.DefaultLayout()), cfg.IL1.LineBytes)
			if err != nil {
				b.Fatal(err)
			}
			il1, err := placement.New(kind, cfg.IL1.Sets())
			if err != nil {
				b.Fatal(err)
			}
			dl1, err := placement.New(kind, cfg.DL1.Sets())
			if err != nil {
				b.Fatal(err)
			}
			iout := make([]uint32, len(ct.ILines))
			dout := make([]uint32, len(ct.DLines))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := prng.Derive(0x1DA11, i)
				il1.Reseed(seed)
				dl1.Reseed(seed)
				placement.IndexAll(il1, ct.ILines, iout)
				placement.IndexAll(dl1, ct.DLines, dout)
			}
			lines := float64(len(ct.ILines) + len(ct.DLines))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
		})
	}
}

// BenchmarkHRPReseed measures one hRP reseed at the paper's L2 geometry
// (1,024 sets): drawing the hash rows and constant and building the
// chunk tables Index reads, which every run of a campaign on the RM
// platform pays once for its L2.
func BenchmarkHRPReseed(b *testing.B) {
	p, err := placement.NewHRP(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reseed(uint64(i))
	}
}
