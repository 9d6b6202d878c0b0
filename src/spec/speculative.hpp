#pragma once

#include <cstdint>

#include "mcmc/diagnostics.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/run_hooks.hpp"
#include "mcmc/sampler.hpp"
#include "par/concurrency.hpp"

namespace mcmcpar::spec {

/// Which move class a speculative round draws from. Periodic partitioning
/// combines speculation with its phases: GlobalOnly during Mg phases
/// (eq. 3) and LocalOnly inside partitions (eq. 4).
enum class MovePhase : std::uint8_t { Any, GlobalOnly, LocalOnly };

/// Counters for speedup accounting. With rejection probability p and n
/// lanes, the expected chain iterations consumed per round is
/// (1 - p^n) / (1 - p), which is exactly the runtime division in eqs. 3-4:
/// each round costs one iteration of wall time on an n-way SMP.
struct SpeculativeStats {
  std::uint64_t rounds = 0;
  std::uint64_t logicalIterations = 0;   ///< chain iterations advanced
  std::uint64_t proposalsEvaluated = 0;  ///< includes discarded lanes
  std::uint64_t roundsWithAcceptance = 0;

  [[nodiscard]] double meanConsumedPerRound() const noexcept {
    return rounds == 0 ? 0.0
                       : static_cast<double>(logicalIterations) /
                             static_cast<double>(rounds);
  }
  /// Fraction of evaluated proposals that were thrown away unevaluated by
  /// the chain (speculation waste).
  [[nodiscard]] double wasteFraction() const noexcept {
    return proposalsEvaluated == 0
               ? 0.0
               : 1.0 - static_cast<double>(logicalIterations) /
                           static_cast<double>(proposalsEvaluated);
  }
};

/// Speculative-moves executor ([11], summarised in §IV of the paper).
///
/// Each *round* evaluates `lanes` independent proposals concurrently, all
/// against the current state i. Because a rejected iteration leaves the
/// chain at i, the evaluations of lanes 0..k are all valid provided lanes
/// 0..k-1 reject; the first accepted lane (if any) commits and every later
/// lane is discarded. The chain's distribution is untouched: it advances by
/// exactly the consumed prefix of genuine MH iterations.
///
/// Lane randomness comes from substreams derived from (round, lane), so the
/// chain trajectory is independent of evaluation order and thread timing.
class SpeculativeExecutor {
 public:
  /// `lease` (borrowed) enables genuinely parallel lane evaluation on its
  /// threads (proposals are read-only); null evaluates lanes serially
  /// (virtual-time benches).
  SpeculativeExecutor(model::ModelState& state,
                      const mcmc::MoveRegistry& registry, unsigned lanes,
                      std::uint64_t seed,
                      const par::PoolLease* lease = nullptr);

  /// Execute one speculative round; returns consumed chain iterations.
  std::uint64_t round(MovePhase phase = MovePhase::Any,
                      const mcmc::SelectionContext& ctx = {});

  /// Advance the chain by at least `iterations` logical iterations.
  /// Cancellation is polled between rounds; returns the logical iterations
  /// consumed by this call.
  std::uint64_t run(std::uint64_t iterations, MovePhase phase = MovePhase::Any,
                    const mcmc::RunHooks& hooks = {});

  [[nodiscard]] const SpeculativeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] mcmc::Diagnostics& diagnostics() noexcept { return diagnostics_; }
  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }

 private:
  model::ModelState& state_;
  const mcmc::MoveRegistry& registry_;
  unsigned lanes_;
  rng::Stream master_;
  const par::PoolLease* lease_;
  SpeculativeStats stats_;
  mcmc::Diagnostics diagnostics_;
  std::uint64_t roundCounter_ = 0;
};

/// Expected per-round consumed iterations for rejection probability p and n
/// lanes: (1 - p^n) / (1 - p) (the reciprocal of eq. 3's speed factor).
[[nodiscard]] double expectedConsumedPerRound(double rejectionProbability,
                                              unsigned lanes) noexcept;

}  // namespace mcmcpar::spec
