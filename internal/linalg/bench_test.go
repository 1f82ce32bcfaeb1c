package linalg

import (
	"math/rand"
	"testing"
)

func benchProblem(m, k int) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.Float64()
	}
	return a, b
}

// BenchmarkSimplexLSSolverAblation compares GeoAlign's two weight
// solvers — the Lawson–Hanson active set (default) and the projected
// gradient — at the paper's full US problem shape (30238 source units,
// 7 references).
func BenchmarkSimplexLSSolverAblation(b *testing.B) {
	a, rhs := benchProblem(30238, 7)
	b.Run("active-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SimplexLeastSquares(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projected-gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SimplexLeastSquaresPG(a, rhs, 500, 1e-10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gram-active-set", func(b *testing.B) {
		gs := NewGramSystem(a)
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
		if _, err := NNLS(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRFactorSolve(b *testing.B) {
	a, rhs := benchProblem(2000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGram(b *testing.B) {
	a, _ := benchProblem(30238, 7)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Gram()
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = NewGramSystem(a).Gram()
		}
	})
}
