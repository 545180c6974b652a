package harness

import "runtime"

// alignmentPad is never called. Go aligns functions to 32 bytes, and on the
// benchmark machine the sparse kernels of the Mult cycle run 27 % slower
// when they start at byte 32 of a 64-byte line than at byte 0: solve_s on
// lib-sync-csr reads 0.27 s or 0.21 s from the same source (EXPERIMENTS.md,
// "Code alignment"). No command links package testing any more, which took
// the 728-byte internal/cpu.Name out of the front of every binary and moved
// all later code by an odd multiple of 32. Taking the address of
// runtime.NumCPU links its out-of-line body, one 32-byte slot inside the
// runtime, and so puts this module's kernels back on the lines they were
// measured on. It goes when the kernels stop caring (ROADMAP item 2).
var alignmentPad func() int

func init() { alignmentPad = runtime.NumCPU }
