// Shared helpers for the serving benchmark: failure handling, timing,
// percentiles, and a small ordered JSON object writer for the records the
// benchmark prints.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/statistics.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t) {
  return MsBetween(t, Clock::now());
}

/// Aborts the run: prints the reason to stderr and exits non-zero without
/// a result line (a failed gate or a broken set-up never prints numbers).
[[noreturn]] inline void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

inline void Must(const dpsp::Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(dpsp::Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Quantile `q` of `values`; +inf samples (failed requests) sort last.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  return dpsp::Quantile(std::move(values), q);
}
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Times `fn` `reps` times and returns the median wall time in ms.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    fn();
    ms.push_back(MsSince(start));
  }
  return Median(std::move(ms));
}

/// An ordered JSON object. Numbers keep all their digits (%.17g).
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.Dump());
  }
  Json& Raw(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
