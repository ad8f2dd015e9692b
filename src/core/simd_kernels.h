// The AVX2 batch kernel for tree-recursive's fused DistanceInto.
//
// TreeCombineAvx2 is the vector twin of TreeAllPairsOracle's scalar batch
// loop, operating on the flat released buffers (EulerTourLca::FlatView
// with the released estimates) through gathers. Every other oracle runs
// its scalar loop only: the dyadic range-sum oracles (tree-hld,
// path-hierarchy) walk a data-dependent number of blocks per pair, and
// bounded-weight answers with one table lookup per pair, where gathers
// saved too little to show in any served batch. The kernel is
// bit-identical to its scalar twin by construction: integer index math is
// exact, and the floating-point combine uses the same IEEE operation
// order as the scalar loop (enforced repo-wide with -ffp-contract=off).
// tests/simd_conformance_test.cc asserts the identity across every
// registry oracle.
//
// This header is always safe to include; the definition exists only when
// the toolchain compiled the AVX2 translation unit (DPSP_HAVE_AVX2), and
// the call site dispatches per call on SimdKernelsEnabled(). Index-width
// contract: every gathered index must fit int32 — the caller guards with
// EulerTourLca::SimdCompatible().

#ifndef DPSP_CORE_SIMD_KERNELS_H_
#define DPSP_CORE_SIMD_KERNELS_H_

#include <cstdint>

#include "graph/tree.h"

namespace dpsp {

namespace simd {

#if defined(DPSP_HAVE_AVX2)

/// Fused tree-distance kernel: out[i] = est[u] + est[v] - 2 * est[lca],
/// the TreeAllPairsOracle combine, with the Euler-tour LCA lookup done by
/// gathers over the packed sparse table. `pairs` is the flattened (u, v)
/// int array, 2 ints per query. Validates ids like the scalar loop: on
/// the first out-of-range pair, results for every earlier pair are
/// written and its index is returned; -1 means all `count` pairs were
/// valid and written.
int TreeCombineAvx2(const EulerTourLca::FlatView& lca, const double* est,
                    const int32_t* pairs, int count, double* out);

#endif  // DPSP_HAVE_AVX2

}  // namespace simd

}  // namespace dpsp

#endif  // DPSP_CORE_SIMD_KERNELS_H_
