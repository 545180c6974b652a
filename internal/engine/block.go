package engine

// BlockWorkspace is the scratch of BlockCycle: one cycle workspace plus
// one column each of the iterate and the right-hand side. Not shareable
// between concurrent cycles.
type BlockWorkspace struct {
	w      *Workspace
	xc, bc []float64
}

// AcquireBlockWorkspace returns a BlockCycle workspace around a free-listed
// cycle workspace; pair with ReleaseBlockWorkspace. The columns are one
// right-hand side long whatever k is.
func (s *Engine) AcquireBlockWorkspace(k int) *BlockWorkspace {
	n := s.LevelSize(0)
	return &BlockWorkspace{w: s.AcquireWorkspace(), xc: make([]float64, n), bc: make([]float64, n)}
}

// ReleaseBlockWorkspace returns w's cycle workspace to the engine's pool.
func (s *Engine) ReleaseBlockWorkspace(w *BlockWorkspace) { s.ReleaseWorkspace(w.w) }

// BlockCycle runs one V-cycle of method m on each of k right-hand sides
// packed row-major (x[i*k+c] is row i of column c), updating x in place:
// column by column, it gathers x_c and b_c, runs Cycle and scatters x_c
// back, so every column is bitwise the single-RHS iterate. Its only
// caller is the benchmark's engine.block4_cycle_ms_per_rhs probe, which
// retires with it.
func (s *Engine) BlockCycle(m Method, x, b []float64, k int, w *BlockWorkspace) {
	for c := 0; c < k; c++ {
		for i := range w.xc {
			w.xc[i], w.bc[i] = x[i*k+c], b[i*k+c]
		}
		s.Cycle(m, w.xc, w.bc, w.w)
		for i, v := range w.xc {
			x[i*k+c] = v
		}
	}
}
