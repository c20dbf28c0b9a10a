// The engine-side SpectrumCache contract: a sweep whose cells share one
// graph performs exactly one eigensolve per spectrum kind -- across the
// scenario's prediction batches AND the f2_* initial distributions --
// with the counters surfaced in BatchResult, and the cached spectra
// leave the emitted CSV bytes identical at every thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/engine/runner.h"
#include "src/graph/generators.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ExperimentSpec small_spec(const std::string& scenario) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.graph.family = "cycle";
  spec.graph.n = 10;
  spec.replicas = 6;
  spec.seed = 13;
  spec.convergence.epsilon = 1e-5;
  spec.print_table = false;
  return spec;
}

// The ISSUE-4 acceptance criterion: C cells sharing one graph, R
// replicas each -- exactly ONE eigensolve for the whole batch, asserted
// via the BatchResult counters.
TEST(SpectrumCacheEngine, SweepOverOneGraphSolvesExactlyOnce) {
  ExperimentSpec spec = small_spec("thm24_edge_convergence");
  spec.sweeps = parse_sweeps("alpha:0.3,0.5,0.7");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.work_items, 3);
  EXPECT_EQ(result.graphs_built, 1);
  // Three per-cell Laplacian predictions, one lambda_2 solve: the other
  // two cells hit the memo.
  EXPECT_EQ(result.spectra_solved, 1);
  EXPECT_EQ(result.spectra_hits, 2);
}

TEST(SpectrumCacheEngine, F2InitialSharesTheScenarioEigensolve) {
  // propB2_edge consumes the Laplacian twice per cell: f_2(L) for the
  // f2_laplacian initial state (a dense solve) and lambda_2(L) for the
  // lower-scale prediction batch (a sparse solve).  Both go through the
  // shared record, so a two-cell sweep solves each kind once.
  ExperimentSpec spec = small_spec("propB2_edge");
  spec.initial.distribution = "f2_laplacian";
  spec.initial.center = "none";
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.work_items, 2);
  EXPECT_EQ(result.spectra_solved, 2);
  // The prefetch pass solves f_2 and both initials hit it; the first
  // prediction solves lambda_2 and the second hits it.
  EXPECT_EQ(result.spectra_hits, 3);

  // Same sharing for the walk spectrum on the NodeModel side.
  ExperimentSpec node = small_spec("propB2_node");
  node.initial.distribution = "f2_walk";
  node.initial.center = "none";
  node.sweeps = parse_sweeps("alpha:0.4,0.6");
  const BatchResult node_result = run_experiment(node);
  EXPECT_EQ(node_result.spectra_solved, 2);
  EXPECT_EQ(node_result.spectra_hits, 3);
}

TEST(SpectrumCacheEngine, EigensolveSpansAppearAtTheSolveSite) {
  // thm22_convergence solves lambda_2(P) inside its prediction units;
  // the record opens one `eigensolve` span per solve, on the worker that
  // runs it, so a sweep over three graphs x two k shows three.
  ExperimentSpec spec = small_spec("thm22_convergence");
  spec.graph.n = 16;
  spec.threads = 2;
  spec.sweeps = parse_sweeps("graph:cycle,complete,torus;k:1,2");
  MetricsRegistry registry;
  const BatchResult result = run_experiment(spec, {}, {}, &registry);
  EXPECT_EQ(result.work_items, 6);
  EXPECT_EQ(result.spectra_solved, 3);
  std::int64_t walk_spans = 0;
  for (const TraceSpan& span : registry.fold().spans) {
    if (span.category == "eigensolve") {
      EXPECT_EQ(span.name, "walk");
      ++walk_spans;
    }
  }
  EXPECT_EQ(walk_spans, 3);
}

TEST(SpectrumCacheEngine, DistinctGraphsSolveSeparately) {
  ExperimentSpec spec = small_spec("thm24_edge_convergence");
  spec.sweeps = parse_sweeps("n:8,12");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.graphs_built, 2);
  EXPECT_EQ(result.spectra_solved, 2);  // one Laplacian solve per size
  EXPECT_EQ(result.spectra_hits, 0);
}

TEST(SpectrumCacheEngine, NonSpectralScenarioSolvesNothing) {
  ExperimentSpec spec = small_spec("node");
  spec.sweeps = parse_sweeps("alpha:0.3,0.5");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.spectra_solved, 0);
  EXPECT_EQ(result.spectra_hits, 0);
}

// The satellite golden-determinism criterion: with the cache enabled,
// the spectral scenarios emit byte-identical aggregate AND streamed CSV
// at 1, 4 and 8 threads (cold cache in every run, cells racing onto the
// pool in arbitrary order).
class SpectralScenarioDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SpectralScenarioDeterminism, CsvBytesIdenticalAtOneFourEightThreads) {
  ExperimentSpec spec = small_spec(GetParam());
  spec.replicas = 12;
  spec.seed = 31;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  if (spec.scenario == "propB2_edge") {
    spec.initial.distribution = "f2_laplacian";
    spec.initial.center = "none";
  }

  std::string aggregate[3];
  std::string streamed[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string base = ::testing::TempDir() + "spectrum_golden_" +
                             spec.scenario + "_" + std::to_string(i);
    CsvSink csv(base + ".csv");
    CsvSink rows_csv(base + "_rows.csv");
    std::vector<RowSink*> sinks{&csv};
    std::vector<RowSink*> row_sinks{&rows_csv};
    const BatchResult result = run_experiment(spec, sinks, row_sinks);
    EXPECT_EQ(result.work_items, 2);
    // propB2_edge adds the dense f_2(L) solve of its initial state.
    EXPECT_EQ(result.spectra_solved, spec.scenario == "propB2_edge" ? 2 : 1);
    aggregate[i] = read_file(base + ".csv");
    streamed[i] = read_file(base + "_rows.csv");
    std::remove((base + ".csv").c_str());
    std::remove((base + "_rows.csv").c_str());
    EXPECT_FALSE(aggregate[i].empty());
    EXPECT_FALSE(streamed[i].empty());
  }
  EXPECT_EQ(aggregate[0], aggregate[1]);
  EXPECT_EQ(aggregate[0], aggregate[2]);
  EXPECT_EQ(streamed[0], streamed[1]);
  EXPECT_EQ(streamed[0], streamed[2]);
}

INSTANTIATE_TEST_SUITE_P(CachedSpectra, SpectralScenarioDeterminism,
                         ::testing::Values("propB2_edge",
                                           "thm24_edge_convergence"));

}  // namespace
}  // namespace engine
}  // namespace opindyn
