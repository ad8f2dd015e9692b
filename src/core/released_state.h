// Pack/unpack helpers shared by every mechanism's SaveReleasedState /
// restore-factory pair. A section is a raw little-endian byte image of a
// flat array (we only target little-endian hosts, like the rest of the
// wire protocol); scalar metadata travels as a small array of doubles so
// one helper covers every family. Unpack validates sizes and returns typed
// errors — snapshot bytes are untrusted input (see tests/store_fuzz_test).

#ifndef DPSP_CORE_RELEASED_STATE_H_
#define DPSP_CORE_RELEASED_STATE_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.h"
#include "core/distance_oracle.h"

namespace dpsp {
namespace released_state {

/// Byte image of a flat trivially-copyable array.
template <typename T>
ReleasedSection Pack(std::string label, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Copied straight from the array: no zero-filled buffer to overwrite.
  const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
  return {std::move(label),
          std::vector<uint8_t>(bytes, bytes + values.size_bytes())};
}

inline ReleasedSection PackScalars(std::string label,
                                   std::initializer_list<double> scalars) {
  return Pack<double>(std::move(label),
                      std::span<const double>(scalars.begin(), scalars.size()));
}

/// The section labeled `label`, or NotFound.
inline Result<ReleasedSectionView> Find(
    std::span<const ReleasedSectionView> sections, std::string_view label) {
  for (const ReleasedSectionView& section : sections) {
    if (section.label == label) return section;
  }
  return Status::NotFound(
      StrFormat("snapshot is missing section '%s'",
                std::string(label).c_str()));
}

/// Reinterprets a section as a span of T; rejects byte counts that are not
/// a multiple of sizeof(T). The returned span aliases the section bytes.
template <typename T>
Result<std::span<const T>> As(const ReleasedSectionView& section) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (section.bytes.size() % sizeof(T) != 0) {
    return Status::InvalidArgument(
        StrFormat("section '%s' holds %zu bytes, not a multiple of %zu",
                  std::string(section.label).c_str(), section.bytes.size(),
                  sizeof(T)));
  }
  return std::span<const T>(
      reinterpret_cast<const T*>(section.bytes.data()),
      section.bytes.size() / sizeof(T));
}

/// Find + As, additionally enforcing an exact element count when
/// `expected_count` >= 0.
template <typename T>
Result<std::span<const T>> Require(
    std::span<const ReleasedSectionView> sections, std::string_view label,
    long expected_count = -1) {
  DPSP_ASSIGN_OR_RETURN(ReleasedSectionView section, Find(sections, label));
  DPSP_ASSIGN_OR_RETURN(std::span<const T> values, As<T>(section));
  if (expected_count >= 0 &&
      values.size() != static_cast<size_t>(expected_count)) {
    return Status::InvalidArgument(
        StrFormat("section '%s' holds %zu values, expected %ld",
                  std::string(label).c_str(), values.size(), expected_count));
  }
  return values;
}

/// An int stored as a double in a scalar-metadata section; rejects values
/// that do not round-trip (corrupt or lying metadata).
inline Result<int> AsInt(double value, const char* what) {
  // Converting a double outside int's range (or NaN) is undefined, so the
  // range is checked first.
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(
        StrFormat("%s is out of range (%g)", what, value));
  }
  int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    return Status::InvalidArgument(
        StrFormat("%s is not an integer (%g)", what, value));
  }
  return as_int;
}

}  // namespace released_state
}  // namespace dpsp

#endif  // DPSP_CORE_RELEASED_STATE_H_
