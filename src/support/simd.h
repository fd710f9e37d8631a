// PSF — Pattern Specification Framework
// Vectorization hint for host row kernels.
//
// Hot per-cell kernels (stencil rows) can register a row variant that
// processes a contiguous run of cells per call; the stencil runtime calls it
// for every run whenever one is registered (StencilRuntime::set_row_func).
//
// The contract for row kernels (docs/PERFORMANCE.md "SIMD host kernels"):
// each cell's arithmetic must be expression-for-expression identical to the
// scalar per-cell kernel — lane-parallel vectorization of independent cells
// is bit-exact (no reassociation, no FMA contraction beyond what the scalar
// build already does, no fast-math), so results are byte-identical to the
// scalar kernel at every executor width. Tests enforce this.
#pragma once

/// Vectorization hint for the innermost run loop of a row kernel. The loop
/// body must be lane-independent (each iteration writes only its own cell).
#if defined(__clang__)
#define PSF_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define PSF_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define PSF_SIMD_LOOP
#endif
