package sparse

import (
	"math/rand"
	"testing"
)

func benchDM(rng *rand.Rand, rows, cols int) *CSR {
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			coo.Add(i, rng.Intn(cols), rng.Float64()*100)
		}
	}
	return coo.ToCSR()
}

// BenchmarkWeightedSumUS measures the disaggregation-step kernel at the
// paper's US shape: the β-weighted sum of 7 reference crosswalks.
func BenchmarkWeightedSumUS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mats := make([]*CSR, 7)
	w := make([]float64, 7)
	for k := range mats {
		mats[k] = benchDM(rng, 30238, 3142)
		w[k] = 1.0 / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedSum(mats, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColSumsUS measures the re-aggregation step (Eq. 17).
func BenchmarkColSumsUS(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := benchDM(rng, 30238, 3142)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ColSums()
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coo := NewCOO(30238, 3142)
		for r := 0; r < 30238; r++ {
			coo.Add(r, rng.Intn(3142), 1)
			coo.Add(r, rng.Intn(3142), 1)
		}
		b.StartTimer()
		_ = coo.ToCSR()
	}
}
