package engine

import "testing"

// Exports for the tests of package engine_test, which run the
// preconditioner inside package krylov's solvers: package engine's own
// tests cannot import krylov, which imports engine.

// PreconditionOracle is preconditionOracle.
var PreconditionOracle = preconditionOracle

// NamedEngine is one engine of PreconditionEngines.
type NamedEngine struct {
	Name   string
	Engine *Engine
}

// PreconditionEngines returns preconditionEngines.
func PreconditionEngines(t *testing.T) []NamedEngine {
	var out []NamedEngine
	for _, tc := range preconditionEngines(t) {
		out = append(out, NamedEngine{tc.name, tc.s})
	}
	return out
}

// CoarseSolve is CoarseSolveScratch with its own scratch.
func (s *Engine) CoarseSolve(e, r []float64) {
	s.CoarseSolveScratch(e, r, make([]float64, len(r)))
}
