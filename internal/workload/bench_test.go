package workload

import (
	"testing"

	"repro/internal/trace"
)

// benchKernels is perfbench's program set: the eleven EEMBC-like kernels
// plus synth20k.
func benchKernels(b *testing.B) []Workload {
	s20, err := ByName("synth20k")
	if err != nil {
		b.Fatal(err)
	}
	return append(EEMBC(), s20)
}

// BenchmarkBuild times one build of every benchmark kernel at the
// default layout.
func BenchmarkBuild(b *testing.B) {
	ws := benchKernels(b)
	l := DefaultLayout()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			w.Build(l)
		}
	}
}

// BenchmarkCompile times trace.Compile of every benchmark kernel's
// default-layout trace for 32-byte lines, the MBPTA campaign's one-time
// compile.
func BenchmarkCompile(b *testing.B) {
	ws := benchKernels(b)
	trs := make([]trace.Trace, len(ws))
	for i, w := range ws {
		trs[i] = w.Build(DefaultLayout())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := trace.Compile(tr, LineBytes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRelocatable times Relocatable of every benchmark kernel at the
// baseline layout for 32-byte lines, the baseline campaign's one-time
// compile (both builds included).
func BenchmarkRelocatable(b *testing.B) {
	ws := benchKernels(b)
	base := BaselineLayout()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := w.Relocatable(base, LineBytes); err != nil {
				b.Fatal(err)
			}
		}
	}
}
