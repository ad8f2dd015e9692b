#include "common/random.h"

#include <bit>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/status.h"

namespace dpsp {

namespace {

// Maps one engine word to (0,1): never exactly 0 or 1, which keeps log()
// finite in the inverse-CDF samplers below.
double UniformFromWord(uint64_t word) {
  return (static_cast<double>(word >> 11) + 0.5) * 0x1.0p-53;
}

// The inverse-CDF transform of one engine word to Lap(scale), shared by
// Laplace and FillLaplace: u uniform in (-1/2, 1/2),
// X = -b * sgn(u) * ln(1 - 2|u|).
double LaplaceFromWord(uint64_t word, double scale) {
  double u = UniformFromWord(word) - 0.5;
  double sign = (u >= 0.0) ? 1.0 : -1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

}  // namespace

double Rng::Uniform() { return UniformFromWord(engine_()); }

double Rng::Uniform(double lo, double hi) {
  DPSP_CHECK_MSG(hi >= lo, "Uniform(lo, hi) requires hi >= lo");
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DPSP_CHECK_MSG(hi >= lo, "UniformInt(lo, hi) requires hi >= lo");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  DPSP_CHECK_MSG(p >= 0.0 && p <= 1.0, "Bernoulli probability out of range");
  return Uniform() < p;
}

double Rng::Laplace(double scale) {
  DPSP_CHECK_MSG(scale > 0.0, "Laplace scale must be positive");
  return LaplaceFromWord(engine_(), scale);
}

void Rng::FillLaplace(double scale, std::span<double> out) {
  DPSP_CHECK_MSG(scale > 0.0, "Laplace scale must be positive");
  // The words go into `out` itself (as bit patterns, no arithmetic), in
  // stream order; each slot is then transformed in place.
  for (double& slot : out) slot = std::bit_cast<double>(engine_());
  auto transform = [scale, out](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = LaplaceFromWord(std::bit_cast<uint64_t>(out[i]), scale);
    }
  };
  // ParallelFor would run a fill of fewer than two grains as one inline
  // chunk too; calling the transform directly spares tree-hld's many
  // short chains its bookkeeping.
  if (out.size() < 2 * kLaplaceFillGrain) {
    transform(0, out.size());
  } else {
    ParallelFor(out.size(), 0, transform, kLaplaceFillGrain);
  }
}

double Rng::Exponential(double rate) {
  DPSP_CHECK_MSG(rate > 0.0, "Exponential rate must be positive");
  return -std::log(Uniform()) / rate;
}

double Rng::Gaussian(double stddev) {
  DPSP_CHECK_MSG(stddev > 0.0, "Gaussian stddev must be positive");
  std::normal_distribution<double> dist(0.0, stddev);
  return dist(engine_);
}

uint64_t Rng::NextSeed() { return engine_(); }

std::vector<int> Rng::Permutation(int n) {
  DPSP_CHECK_MSG(n >= 0, "Permutation size must be non-negative");
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(UniformInt(0, i));
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

}  // namespace dpsp
