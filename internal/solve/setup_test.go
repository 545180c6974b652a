package solve

import (
	"fmt"
	"testing"

	"asyncmg/internal/amg"
	"asyncmg/internal/op"
	"asyncmg/internal/smoother"
)

// TestBuildMatrixFreeFallback: with matrixFree, a stencil family builds a
// stencil fine level from size 3, the smallest grid it coarsens
// geometrically, and falls back to the assembled matrix below it instead
// of failing.
func TestBuildMatrixFreeFallback(t *testing.T) {
	for _, family := range []string{"7pt", "27pt"} {
		for _, size := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/size=%d", family, size), func(t *testing.T) {
				e, err := Build(Source{Problem: family, Size: size}, amg.DefaultOptions(), smoother.DefaultConfig(), true)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				_, stencil := e.Ops[0].(*op.Stencil)
				csr := e.H.Levels[0].A != nil
				if want := size >= 3; stencil != want || csr == want {
					t.Errorf("fine level is %T (CSR %v), want a stencil = %v", e.Ops[0], csr, want)
				}
			})
		}
	}
}
