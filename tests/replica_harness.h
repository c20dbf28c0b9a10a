// Shared test helpers: run R replicas of a configured model on the
// engine's CellScheduler and fold F / T_eps / divergence, or samples
// taken at fixed step counts.
// Replica r draws from Rng::fork(seed, r) -- the same stream assignment
// the retired core/montecarlo harness used, so tests ported onto this
// helper keep their statistical expectations unchanged.
#ifndef OPINDYN_TESTS_REPLICA_HARNESS_H
#define OPINDYN_TESTS_REPLICA_HARNESS_H

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/support/cell_scheduler.h"
#include "src/support/stats.h"

namespace opindyn {
namespace test_support {

struct ReplicaSummary {
  RunningStats value;
  RunningStats steps;
  std::int64_t diverged = 0;
};

inline ReplicaSummary run_replicas(const Graph& g,
                                   const ModelConfig& config,
                                   const std::vector<double>& xi,
                                   std::int64_t replicas,
                                   std::uint64_t seed,
                                   const ConvergenceOptions& convergence,
                                   std::size_t threads = 0) {
  CellScheduler scheduler(threads);
  const std::vector<RunningStats> stats = scheduler.run(
      replicas, seed, 3,
      [&](std::int64_t, Rng& rng, std::span<double> out) {
        auto process = make_process(g, config, xi);
        const ConvergenceResult res =
            run_until_converged(*process, rng, convergence);
        out[0] = res.final_value;
        out[1] = static_cast<double>(res.steps);
        out[2] = res.converged ? 0.0 : 1.0;
      });
  return {stats[0], stats[1],
          static_cast<std::int64_t>(std::llround(stats[2].sum()))};
}

/// Runs R replicas of a configured model for a fixed number of steps and
/// folds `observe(process)` at each (ascending) step count in
/// `checkpoints`: entry c of the result holds the samples taken at
/// checkpoints[c].  Replica r draws from Rng::fork(seed, r).
template <typename Observe>
std::vector<RunningStats> sample_at_checkpoints(
    const Graph& g, const ModelConfig& config, const std::vector<double>& xi,
    const std::vector<std::int64_t>& checkpoints, std::int64_t replicas,
    std::uint64_t seed, Observe observe) {
  CellScheduler scheduler;
  return scheduler.run(
      replicas, seed, checkpoints.size(),
      [&](std::int64_t, Rng& rng, std::span<double> out) {
        auto process = make_process(g, config, xi);
        for (std::size_t c = 0; c < checkpoints.size(); ++c) {
          while (process->time() < checkpoints[c]) {
            process->step(rng);
          }
          out[c] = observe(*process);
        }
      });
}

}  // namespace test_support
}  // namespace opindyn

#endif  // OPINDYN_TESTS_REPLICA_HARNESS_H
