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

// BenchmarkRelocatable times Relocatable of the benchmark kernels at the
// baseline layout for 32-byte lines, the baseline campaign's one-time
// compile: over all of them ("all", beside BenchmarkBuild plus
// BenchmarkCompile) and per kernel. The built-in kernels take the
// relocation walk.
func BenchmarkRelocatable(b *testing.B) {
	benchRelocatable(b, benchKernels(b))
}

// BenchmarkRelocatableTwoBuilds is BenchmarkRelocatable on the two-build
// path: each kernel's Build wrapped in a fresh Workload, as a custom
// workload relocates.
func BenchmarkRelocatableTwoBuilds(b *testing.B) {
	ws := benchKernels(b)
	for i, w := range ws {
		ws[i] = twoBuildsOf(w)
	}
	benchRelocatable(b, ws)
}

func benchRelocatable(b *testing.B, ws []Workload) {
	base := BaselineLayout()
	run := func(b *testing.B, ws []Workload) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, w := range ws {
				if _, err := w.Relocatable(base, LineBytes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("all", func(b *testing.B) { run(b, ws) })
	for _, w := range ws {
		b.Run(w.Name, func(b *testing.B) { run(b, []Workload{w}) })
	}
}
