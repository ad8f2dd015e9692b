// What the serving benchmark (perfbench/) reads about the query kernels.
//
// Every DistanceInto kernel is one portable scalar loop; there is no
// vector dispatch. Both names below stay only because perfbench/ calls
// them, and go once its benchmark change drops the `simd_dispatch` field
// and the `core.ns_per_pair_scalar` metric.

#ifndef DPSP_COMMON_CPU_H_
#define DPSP_COMMON_CPU_H_

namespace dpsp {

/// The kernel dispatch perfbench records as `simd_dispatch`: always
/// "scalar". Kept until perfbench stops recording it.
inline const char* SimdDispatchDescription() { return "scalar"; }

/// Does nothing: the kernels are already scalar, so perfbench's
/// `core.ns_per_pair_scalar` times the same loop as `core.ns_per_pair`.
/// Kept until perfbench drops that metric.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool) {}
};

}  // namespace dpsp

#endif  // DPSP_COMMON_CPU_H_
