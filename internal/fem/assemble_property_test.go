package fem

import (
	"strings"
	"testing"
	"time"

	"asyncmg/internal/par"
	"asyncmg/internal/sparse"
)

// withAssemblyWorkers swaps the shared kernel pool to the given size and
// lowers the dispatch threshold so test-sized meshes take the sharded
// assembly path, restoring both on cleanup.
func withAssemblyWorkers(t *testing.T, workers int) {
	t.Helper()
	oldThresh := par.Threshold()
	par.SetThreshold(1)
	par.SetWorkers(workers)
	t.Cleanup(func() {
		par.SetThreshold(oldThresh)
		par.SetWorkers(0)
	})
}

func assembleEq(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d, want %dx%d/%d",
			name, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for p := range want.Vals {
		if got.ColIdx[p] != want.ColIdx[p] || got.Vals[p] != want.Vals[p] {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v) — not bitwise-identical",
				name, p, got.ColIdx[p], got.Vals[p], want.ColIdx[p], want.Vals[p])
		}
	}
}

// TestAssemblyBitwiseAcrossWorkerCounts checks that sharded element
// assembly with its ordered merge reproduces the serial stiffness
// matrices bit for bit across worker counts 1, 2 and 8, for both the
// scalar Laplace and the vector elasticity assemblers.
func TestAssemblyBitwiseAcrossWorkerCounts(t *testing.T) {
	ball := BallMesh(4)
	beam := BeamMesh(3)
	mats := DefaultBeamMaterials()

	par.SetWorkers(1)
	lapRef, err := AssembleLaplace(ball)
	if err != nil {
		t.Fatalf("serial AssembleLaplace: %v", err)
	}
	elRef, err := AssembleElasticity(beam, mats)
	if err != nil {
		t.Fatalf("serial AssembleElasticity: %v", err)
	}
	par.SetWorkers(0)

	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 8: "workers=8"}[workers], func(t *testing.T) {
			withAssemblyWorkers(t, workers)
			lap, err := AssembleLaplace(ball)
			if err != nil {
				t.Fatalf("AssembleLaplace: %v", err)
			}
			assembleEq(t, "laplace", lap.A, lapRef.A)
			el, err := AssembleElasticity(beam, mats)
			if err != nil {
				t.Fatalf("AssembleElasticity: %v", err)
			}
			assembleEq(t, "elasticity", el.A, elRef.A)
			for i := range lapRef.FreeDOF {
				if lap.FreeDOF[i] != lapRef.FreeDOF[i] {
					t.Fatalf("laplace FreeDOF[%d] = %d, want %d", i, lap.FreeDOF[i], lapRef.FreeDOF[i])
				}
			}
		})
	}
}

// TestAssemblyErrorsUnderShardedPath checks that the sharded merge
// reports the lowest-numbered failing element, matching the serial
// fail-fast contract.
func TestAssemblyErrorsUnderShardedPath(t *testing.T) {
	withAssemblyWorkers(t, 4)
	m := BallMesh(3)
	// Degenerate tet: collapse the last element onto a single vertex.
	bad := len(m.Tets) - 1
	v := m.Tets[bad][0]
	m.Tets[bad] = [4]int{v, v, v, v}
	if _, err := AssembleLaplace(m); err == nil {
		t.Fatal("degenerate tet not reported under sharded assembly")
	} else if !strings.Contains(err.Error(), "degenerate") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Bad material index on the first element: the error must name the
	// lowest failing element even though later shards also run.
	m2 := BeamMesh(2)
	m2.Material[0] = 99
	_, err := AssembleElasticity(m2, DefaultBeamMaterials())
	if err == nil {
		t.Fatal("bad material index not reported under sharded assembly")
	}
	if !strings.Contains(err.Error(), "tet 0 ") {
		t.Fatalf("expected the lowest failing element (tet 0), got: %v", err)
	}
}

// holdPool occupies the shared pool with a dispatch whose caller shard
// blocks until release is called, and returns once that shard has started.
func holdPool() (release func()) {
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	pool := par.Default()
	go func() {
		defer close(done)
		pool.Run(pool.Workers(), blockKernel{held, free})
	}()
	<-held
	return func() {
		close(free)
		<-done
	}
}

type blockKernel struct{ held, free chan struct{} }

func (k blockKernel) Do(shard, _, _ int) {
	if shard == 0 {
		close(k.held)
		<-k.free
	}
}

// TestBusyPoolAssemblyTransposeMatMulBitwise: with the shared pool held by
// a blocking kernel, every sharded kernel of FEM assembly, Transpose and
// MatMul runs its shards on the caller, and the results equal the
// idle-pool ones bit for bit (the merge and the transpose's offset
// combine read per-shard slots, so the caller must run the same shards).
func TestBusyPoolAssemblyTransposeMatMulBitwise(t *testing.T) {
	withAssemblyWorkers(t, 4)
	ball, beam, mats := BallMesh(4), BeamMesh(3), DefaultBeamMaterials()
	build := func() (out []*sparse.CSR, err error) {
		lap, err := AssembleLaplace(ball)
		if err != nil {
			return nil, err
		}
		el, err := AssembleElasticity(beam, mats)
		if err != nil {
			return nil, err
		}
		for _, a := range []*sparse.CSR{lap.A, el.A} {
			at := a.Transpose()
			out = append(out, a, at, sparse.MatMul(at, a))
		}
		return out, nil
	}
	want, err := build()
	if err != nil {
		t.Fatal(err)
	}
	release := holdPool()
	defer release()
	before := par.ReadStats()
	var got []*sparse.CSR
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err = build()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("assembly on a busy pool did not return: the caller waited for the pool")
	}
	if err != nil {
		t.Fatal(err)
	}
	if par.ReadStats().Contended == before.Contended {
		t.Fatal("no kernel found the pool busy")
	}
	for i, name := range []string{"laplace", "laplace transpose", "laplace AᵀA", "elasticity", "elasticity transpose", "elasticity AᵀA"} {
		assembleEq(t, name, got[i], want[i])
	}
}
