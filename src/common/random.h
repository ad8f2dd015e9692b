// Deterministic random number generation for the library.
//
// All stochastic components (Laplace mechanisms, graph generators, attack
// harnesses) draw from an explicitly seeded Rng so that every test and bench
// run is reproducible. The Laplace sampler uses the inverse-CDF transform.
//
// A release draws its noise in bulk (FillLaplace): the engine's words are
// taken in stream order on the calling thread, and the transform of each
// word, the costly part (one log), runs across ParallelFor workers. The
// values are those of as many successive Laplace calls, so a seed gives
// the same release whichever path runs. The word pass is the fill's only
// use of the engine, so a generator swapped in there changes no caller.
//
// NOTE ON SECURITY: mt19937_64 is *not* cryptographically secure, and
// inverse-CDF sampling of doubles is vulnerable to floating-point attacks in
// adversarial deployments (Mironov 2012). This repository reproduces the
// paper's statistical behaviour; a hardened deployment would substitute a
// CSPRNG and the snapping mechanism behind the same Rng interface.

#ifndef DPSP_COMMON_RANDOM_H_
#define DPSP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace dpsp {

/// Seeded pseudo-random generator with the distributions the library needs.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Equal seeds give equal streams.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in the open interval (0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in the closed range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Laplace(0, scale): density (1/2b) exp(-|x|/b). Requires scale > 0.
  double Laplace(double scale);

  /// Fills `out` with exactly the values, in order, of out.size()
  /// successive Laplace(scale) calls, and leaves the stream where they
  /// would. The engine words are drawn on the calling thread; the
  /// transform runs on ParallelFor workers of at least kLaplaceFillGrain
  /// values each, so a fill of fewer than two grains, or one that starts
  /// while another ParallelFor call executes, runs inline. Requires
  /// scale > 0.
  void FillLaplace(double scale, std::span<double> out);

  /// The fewest values a FillLaplace worker transforms.
  static constexpr size_t kLaplaceFillGrain = size_t{1} << 14;

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Standard normal via std::normal_distribution.
  double Gaussian(double stddev);

  /// A fresh seed derived from this generator's stream, for spawning
  /// independent child generators.
  uint64_t NextSeed();

  /// Random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Access to the raw engine for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dpsp

#endif  // DPSP_COMMON_RANDOM_H_
