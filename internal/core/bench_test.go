package core_test

import (
	"math/rand"
	"testing"

	"geoalign/internal/core"
	"geoalign/internal/synth"
)

// BenchmarkEngineAlignAll times AlignAll on a warm engine at the size
// of the paper's "Eastern Time Zone States" universe (12486 sources,
// 1052 targets, 7 references), the engine the serving benchmark
// serves, without the HTTP stack, on one worker:
//
//   - lone: one objective, what one /v1/align miss hands the engine;
//   - pair, quad, eight, sixteen: 2, 4, 8 and 16 objectives in one
//     call, as /v1/align/batch hands them; per attribute, these against
//     lone show what a batch saves (AlignAll runs Align's solve and
//     redistribution per objective on a pooled scratch, so only the
//     call's fixed cost is shared);
//   - align: the same objective through Align, for comparison with
//     lone.
func BenchmarkEngineAlignAll(b *testing.B) {
	const ns, nt, k = 12486, 1052, 7
	rng := rand.New(rand.NewSource(1))
	p := synth.ScalingProblem(rng, ns, nt, k)
	e, err := core.NewEngine(p.References, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	objectives := make([][]float64, 16)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 1e4
		}
		objectives[a] = obj
	}
	for _, bc := range []struct {
		name string
		n    int
	}{{"lone", 1}, {"pair", 2}, {"quad", 4}, {"eight", 8}, {"sixteen", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.AlignAll(objectives[:bc.n], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("align", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Align(objectives[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
