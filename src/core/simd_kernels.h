// AVX2 batch kernels for the fused DistanceInto hot paths.
//
// Each kernel is the vector twin of one scalar batch loop, operating on
// the flat released buffers (EulerTourLca::FlatView with the released
// estimates, the bounded-weight Z x Z table) through gathers. The dyadic
// range-sum oracles (tree-hld, path-hierarchy) have no vector kernel:
// their per-pair chain climbs and block walks have data-dependent length,
// and a gathered prefix-sum variant measured no faster than the scalar
// walk. The kernels are
// bit-identical to their scalar twins by construction: integer index math
// is exact, and every floating-point combine uses the same IEEE operation
// order as the scalar loop (enforced repo-wide with -ffp-contract=off).
// tests/simd_conformance_test.cc asserts the identity across every
// registry oracle.
//
// This header is always safe to include; the definitions exist only when
// the toolchain compiled the AVX2 translation unit (DPSP_HAVE_AVX2), and
// call sites dispatch per call on SimdKernelsEnabled(). Index-width
// contract: every gathered index must fit int32 — callers guard with
// EulerTourLca::SimdCompatible() and the bounded oracle's Z*Z check.

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

/// Fused bounded-weight kernel: out[i] = table[assign[u] * stride +
/// assign[v]], 0 exactly when the assignments coincide. Same validation
/// contract as TreeCombineAvx2 (`n` bounds the vertex ids).
int BoundedLookupAvx2(const double* table, int stride,
                      const int32_t* assign, int n, const int32_t* pairs,
                      int count, double* out);

#endif  // DPSP_HAVE_AVX2

}  // namespace simd

}  // namespace dpsp

#endif  // DPSP_CORE_SIMD_KERNELS_H_
