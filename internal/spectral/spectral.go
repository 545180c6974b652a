// Package spectral estimates the spectral radius quantities that govern
// convergence of the iterative methods in this repository. The key
// diagnostic is ρ(|G|) for a smoother's iteration matrix G = I − M⁻¹A:
// Section II.C of the paper states that the asynchronous iteration
// (Equation 5) converges if ρ(|G|) < 1, where |G| is the element-wise
// absolute value.
package spectral

import (
	"fmt"
	"math"

	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Radius estimates the spectral radius of a via the power method with a
// positive start vector, iterating until the estimate moves by less than
// tol or maxIter iterations elapse. For the non-negative matrices this
// package is used on (|G|), the Perron-Frobenius theorem guarantees the
// dominant eigenvalue is real and non-negative and the power method
// converges from a positive start.
func Radius(a *sparse.CSR, tol float64, maxIter int) (float64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("spectral: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows == 0 {
		return 0, nil
	}
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	y := make([]float64, n)
	est := 0.0
	for it := 0; it < maxIter; it++ {
		a.MatVec(y, x)
		ny := vec.Norm2(y)
		if ny == 0 {
			return 0, nil // the start vector was annihilated: radius ~ 0
		}
		newEst := ny // ‖x‖ = 1, so ‖Ax‖ is the power-method estimate
		vec.Scale(1/ny, y)
		x, y = y, x
		if math.Abs(newEst-est) <= tol*(1+newEst) {
			return newEst, nil
		}
		est = newEst
	}
	return est, nil
}

// AbsIterationMatrix builds |G| = |I − diag(scale)·A| explicitly, where
// scale is the smoother's diagonal scaling (ω/a_ii for ω-Jacobi, 1/ℓ1 for
// ℓ1-Jacobi).
func AbsIterationMatrix(a *sparse.CSR, scale []float64) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spectral: matrix must be square")
	}
	if len(scale) != a.Rows {
		return nil, fmt.Errorf("spectral: scale has %d entries, want %d", len(scale), a.Rows)
	}
	coo := sparse.NewCOO(a.Rows, a.Cols, a.NNZ()+a.Rows)
	for i := 0; i < a.Rows; i++ {
		haveDiag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			v := -scale[i] * a.Vals[p]
			if j == i {
				v += 1
				haveDiag = true
			}
			coo.Add(i, j, math.Abs(v))
		}
		if !haveDiag {
			coo.Add(i, i, 1)
		}
	}
	return coo.ToCSR(), nil
}

// AsyncSmootherRadius estimates ρ(|I − diag(scale)·A|), the quantity whose
// being below 1 guarantees convergence of the asynchronous smoother
// iteration (Equation 5 of the paper).
func AsyncSmootherRadius(a *sparse.CSR, scale []float64) (float64, error) {
	g, err := AbsIterationMatrix(a, scale)
	if err != nil {
		return 0, err
	}
	return Radius(g, 1e-10, 5000)
}
