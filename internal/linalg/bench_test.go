package linalg_test

import (
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

func benchProblem(m, k int) (*linalg.Matrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	a := linalg.NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.Float64()
	}
	return a, b
}

// BenchmarkSimplexLSSolverAblation compares the engine's Gram-form
// active-set solve with the dense active-set oracle it reproduces, at
// the paper's full US problem shape (30238 source units, 7 references).
func BenchmarkSimplexLSSolverAblation(b *testing.B) {
	a, rhs := benchProblem(30238, 7)
	b.Run("active-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := oracle.SimplexLeastSquares(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gram-active-set", func(b *testing.B) {
		gs := linalg.NewGramSystem(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gs.SimplexLS(rhs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNNLS(b *testing.B) {
	a, rhs := benchProblem(5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.NNLS(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRFactorSolve(b *testing.B) {
	a, rhs := benchProblem(2000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGram(b *testing.B) {
	a, _ := benchProblem(30238, 7)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = oracle.Gram(a)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = linalg.NewGramSystem(a).Gram()
		}
	})
}
