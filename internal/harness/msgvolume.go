package harness

import (
	"context"
	"fmt"
	"io"

	"asyncmg/internal/amg"
	"asyncmg/internal/distmem"
	"asyncmg/internal/engine"
	"asyncmg/internal/grid"
	"asyncmg/internal/obs"
	"asyncmg/internal/smoother"
	"asyncmg/internal/sparse"
)

// MsgVolumeConfig parameterizes the sparsification message-volume
// experiment: the same distributed-memory solve on a golden and a
// strength-sparsified hierarchy, comparing the correction payload volume
// the distmem_sent_nnz_total counters accumulate.
type MsgVolumeConfig struct {
	// Problem is the operator family (default 27pt, the family with the
	// fattest coarse stencils and so the biggest sparsification effect
	// on the hierarchy footprint).
	Problem string
	// Method is the additive cycle the distmem tier runs: "multadd"
	// (default) or "afacx".
	Method string
	// Size is the mesh parameter (default 16 — small enough for CI,
	// big enough that the 27pt hierarchy has a sparsifiable middle
	// level; at 12 it is two levels and theta never fires).
	Size int
	// Theta is the sparsification drop threshold (default 0.25).
	Theta float64
	// MaxCorrections bounds the distmem solve (default 60).
	MaxCorrections int
	// Seed generates the right-hand side (default 11).
	Seed int64
	// Observer, when non-nil, accumulates both solves' per-grid counts.
	Observer *obs.Observer
}

// DefaultMsgVolume returns the experiment's defaults.
func DefaultMsgVolume() MsgVolumeConfig {
	return MsgVolumeConfig{Problem: Problem27pt, Method: "multadd", Size: 16, Theta: 0.25, MaxCorrections: 60, Seed: 11}
}

// MsgVolumeReport is the before/after message-volume table.
type MsgVolumeReport struct {
	Problem string  `json:"problem"`
	Method  string  `json:"method"`
	Rows    int     `json:"rows"`
	Theta   float64 `json:"theta"`
	// SentNNZGolden/SentNNZSparsified total the per-grid
	// distmem_sent_nnz_total counters over the whole solve.
	SentNNZGolden     int64 `json:"sent_nnz_golden"`
	SentNNZSparsified int64 `json:"sent_nnz_sparsified"`
	// Reduction is the payload-volume fraction saved.
	Reduction float64 `json:"reduction"`
	// RelResGolden/RelResSparsified show the accuracy cost.
	RelResGolden     float64 `json:"relres_golden"`
	RelResSparsified float64 `json:"relres_sparsified"`
	// HierarchyBytesGolden/HierarchyBytesSparsified are the resident
	// hierarchy footprints — the delta sparsification does buy the
	// distributed tier (smaller replicated operators), independent of
	// the correction traffic.
	HierarchyBytesGolden     int `json:"hierarchy_bytes_golden"`
	HierarchyBytesSparsified int `json:"hierarchy_bytes_sparsified"`
	// PerGridGolden/PerGridSparsified are the per-grid payload totals.
	PerGridGolden     []int64 `json:"per_grid_golden"`
	PerGridSparsified []int64 `json:"per_grid_sparsified"`
}

// MsgVolume runs the distributed-memory additive solve twice — once on
// the golden hierarchy, once on the strength-sparsified one — and
// reports the correction payload volume each moved, via the distmem
// sent-nnz counters. This is the ROADMAP follow-up to the sparsification
// work, and the measured answer is a negative result worth pinning:
// corrections travel at fine resolution and arrive dense, so the
// per-solve payload is corrections x rows on BOTH hierarchies —
// sparsification shrinks the replicated operator footprint
// (hierarchy_bytes, also reported here) and per-correction compute, not
// the correction traffic itself. Shrinking the wire volume would need
// coarse-resolution or thresholded payloads, which is a protocol change,
// not a setup-phase one.
func MsgVolume(w io.Writer, cfg MsgVolumeConfig) (*MsgVolumeReport, error) {
	var method engine.Method
	switch cfg.Method {
	case "multadd":
		method = engine.Multadd
	case "afacx":
		method = engine.AFACx
	default:
		return nil, fmt.Errorf("msgvolume: method %q (want multadd or afacx)", cfg.Method)
	}
	a, err := BuildProblem(cfg.Problem, cfg.Size)
	if err != nil {
		return nil, err
	}
	opt := PaperSetup(cfg.Problem, 1, smoother.WJacobi)
	golden, err := engine.New(a, opt.AMG, opt.Smoother)
	if err != nil {
		return nil, err
	}
	sOpt := opt.AMG
	sOpt.Sparsify = amg.SparsifyOptions{Theta: cfg.Theta, Mode: sparse.SparsifyLump}
	sparsified, err := engine.New(a, sOpt, opt.Smoother)
	if err != nil {
		return nil, err
	}
	b := grid.RandomRHS(a.Rows, cfg.Seed)

	run := func(s *engine.Engine) (int64, []int64, float64, error) {
		o := obs.New(s.NumLevels())
		res, err := distmem.Solve(context.Background(), s, b, distmem.Config{
			Method:         method,
			MaxCorrections: cfg.MaxCorrections,
			Observer:       o,
		})
		if err != nil {
			return 0, nil, 0, err
		}
		cfg.Observer.Merge(o.Snapshot())
		per := o.SentNNZ.Snapshot(nil)
		var total int64
		for k, v := range per {
			total += v
			cfg.Observer.CorrectionPayload(k, v) // Merge does not carry the payload counters
		}
		return total, per, res.RelRes, nil
	}

	rep := &MsgVolumeReport{
		Problem: cfg.Problem, Method: cfg.Method, Rows: a.Rows, Theta: cfg.Theta,
		HierarchyBytesGolden:     golden.HierarchyBytes(),
		HierarchyBytesSparsified: sparsified.HierarchyBytes(),
	}
	if rep.SentNNZGolden, rep.PerGridGolden, rep.RelResGolden, err = run(golden); err != nil {
		return nil, fmt.Errorf("golden distmem solve: %w", err)
	}
	if rep.SentNNZSparsified, rep.PerGridSparsified, rep.RelResSparsified, err = run(sparsified); err != nil {
		return nil, fmt.Errorf("sparsified distmem solve: %w", err)
	}
	if rep.SentNNZGolden > 0 {
		rep.Reduction = 1 - float64(rep.SentNNZSparsified)/float64(rep.SentNNZGolden)
	}

	fmt.Fprintf(w, "# distmem message volume, %s %s size=%d theta=%.2f, %d corrections\n",
		cfg.Problem, cfg.Method, cfg.Size, cfg.Theta, cfg.MaxCorrections)
	fmt.Fprintf(w, "%-12s %15s %15s\n", "grid", "sent nnz", "sent nnz'")
	for k := range rep.PerGridGolden {
		var after int64
		if k < len(rep.PerGridSparsified) {
			after = rep.PerGridSparsified[k]
		}
		fmt.Fprintf(w, "%-12d %15d %15d\n", k, rep.PerGridGolden[k], after)
	}
	fmt.Fprintf(w, "total sent nnz %d -> %d (-%.1f%%), relres %.3e -> %.3e, hierarchy %d B -> %d B\n",
		rep.SentNNZGolden, rep.SentNNZSparsified, 100*rep.Reduction,
		rep.RelResGolden, rep.RelResSparsified,
		rep.HierarchyBytesGolden, rep.HierarchyBytesSparsified)
	return rep, nil
}
