// Workload runner for the spectral_sweep workload of the end-to-end
// benchmark (perfbench/run.py spawns it; see perfbench/README.md).
//
//   perfbench_runner run --workload=spectral_sweep --seed=N --seconds=S
//                        --trace=0|1 --out-dir=DIR
//   perfbench_runner oneshot --jobs=FILE
//   perfbench_runner build-info
//
// `run` prints one JSON document on stdout.  Untraced (--trace=0) it
// times cold graph set-up through GraphCache::get and repeated
// engine::run_experiment calls that reuse that cache, and checks every
// repetition's CSV bytes.  Traced (--trace=1) it replays the same
// inputs through the layers' public entry points -- GraphCache::get,
// GraphSpectra::walk(), make_process, the step_burst / converged() loop
// of run_until_converged, CellScheduler::submit with timestamping
// bodies -- plus one run_experiment through timing sinks, and fails
// unless the replay reproduces the untraced rows.  All timing lives in
// this file; nothing under src/ is instrumented.
//
// `oneshot` runs one-shot reference batches for the serve workload's
// CSV check: each line of FILE is "<csv path>\t<flat JSON spec>".
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/model.h"
#include "src/core/theory.h"
#include "src/engine/experiment_spec.h"
#include "src/engine/run_report.h"
#include "src/engine/runner.h"
#include "src/engine/scenario_format.h"
#include "src/engine/sinks.h"
#include "src/graph/graph_cache.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/build_info.h"
#include "src/support/cell_scheduler.h"
#include "src/support/json.h"
#include "src/support/stats.h"

namespace {

using namespace opindyn;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ---------------------------------------------------------------------
// Workloads

/// Worker threads of spectral_sweep and of the serve workload's one-shot
/// reference batches.  Both leave cores of the 4-vCPU machine free: a
/// batch that fills every core slows by the share any other busy process
/// takes (a 4-thread cross_model sweep ran 1.7x longer beside two busy
/// threads, a 1-thread one 1.1x).  spectral_sweep keeps two threads so
/// that its three solves still overlap.
constexpr std::size_t kSpectralThreads = 2;
constexpr std::size_t kOneshotThreads = 1;
/// Cold graph set-ups per run, at least (small graphs repeat for 0.3 s);
/// the median is setup_s.
constexpr int kMinSetups = 3;
/// Set-ups faster than this also repeat for kSetupTopUpS after every
/// timed repetition: a sub-millisecond build sampled in one burst would
/// describe a single moment of a shared machine, not the whole run.
constexpr double kCheapSetupS = 0.01;
constexpr double kSetupTopUpS = 0.03;
/// Timed run_experiment repetitions per run, at least; more run until
/// the --seconds budget is spent.  The median is time_to_solution_s.
constexpr int kMinTimedReps = 3;

/// The workload's spec at `seed`.  The seed drives the initial opinions
/// and the replica streams; the graphs are part of the workload's
/// definition, so set-up builds the same graphs at every seed.
engine::ExperimentSpec make_spec(const std::string& name,
                                 std::uint64_t seed) {
  if (name != "spectral_sweep") {
    throw std::runtime_error("unknown run workload '" + name + "'");
  }
  // n=128, not 256: three concurrent n=256 Jacobi solves (1 MiB working
  // set each) slowed by up to half between runs 20 minutes apart on a
  // shared 4-vCPU host, while the 256 KiB n=128 solves moved ~10%.
  return engine::parse_spec({{"seed", std::to_string(seed)},
                             {"init-seed", std::to_string(seed)},
                             {"table", "false"},
                             {"scenario", "thm22_convergence"},
                             {"n", "128"},
                             {"replicas", "32"},
                             {"eps", "1e-8"},
                             {"sweep",
                              "graph:torus,random_regular,hypercube;k:1,2"},
                             {"threads", std::to_string(kSpectralThreads)}});
}

/// The grid cells of `spec`, resolved exactly as the runner expands them.
std::vector<engine::ExperimentSpec> grid_items(
    const engine::ExperimentSpec& spec) {
  std::vector<engine::ExperimentSpec> items;
  for (const engine::SweepPoint& point : engine::expand_grid(spec)) {
    engine::ExperimentSpec item = spec;
    item.sweeps.clear();
    for (const auto& [key, value] : point.overrides) {
      engine::apply_override(item, key, value);
    }
    items.push_back(std::move(item));
  }
  return items;
}

// ---------------------------------------------------------------------
// Output checks

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t column(const std::vector<std::string>& columns,
                   const std::string& name) {
  const auto it = std::find(columns.begin(), columns.end(), name);
  if (it == columns.end()) {
    throw std::runtime_error("result has no column '" + name + "'");
  }
  return static_cast<std::size_t>(it - columns.begin());
}

/// Appends to `problems` every way `result` breaks the workload's own
/// invariants (valid at any seed, unlike the recorded digests).
void check_invariants(const engine::BatchResult& result,
                      std::vector<std::string>& problems) {
  const auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  };
  expect(result.rows.size() == 6, "expected 6 aggregate rows");
  const std::size_t gap = column(result.columns, "1-l2(P)");
  const std::size_t ratio = column(result.columns, "meas/pred");
  for (const auto& row : result.rows) {
    expect(std::stod(row[gap]) > 0.0, "non-positive spectral gap");
    // Prop. B.1 predicts the mean hitting time from above; a ratio
    // far outside (0, 1] means the stepping or the solve is wrong.
    const double r = std::stod(row[ratio]);
    expect(r > 0.05 && r < 1.5,
           "meas/pred " + row[ratio] + " outside (0.05, 1.5)");
  }
}

json::Value strings(const std::vector<std::string>& values) {
  json::Array array;
  for (const std::string& value : values) {
    array.emplace_back(value);
  }
  return json::Value(std::move(array));
}

json::Value numbers(const std::vector<double>& values) {
  json::Array array;
  for (const double value : values) {
    array.emplace_back(value);
  }
  return json::Value(std::move(array));
}

// ---------------------------------------------------------------------
// Untraced run: set-up and time to solution

/// Builds every distinct graph of the grid into the empty `cache`;
/// returns the wall time of the builds.
double cold_setup(const std::vector<engine::ExperimentSpec>& items,
                  GraphCache& cache) {
  const Clock::time_point start = Clock::now();
  for (const engine::ExperimentSpec& item : items) {
    cache.get(engine::graph_cache_key(item.graph),
              [&item] { return engine::build_graph(item.graph); });
  }
  return seconds_between(start, Clock::now());
}

json::Value run_untraced(const std::string& name,
                         const engine::ExperimentSpec& spec, double budget_s,
                         const std::string& out_dir) {
  const std::vector<engine::ExperimentSpec> items = grid_items(spec);
  const Clock::time_point begin = Clock::now();

  // Set-up: cold graph builds, several times; the last cache is handed
  // to every timed batch through RunContext.
  std::vector<double> setup_s;
  std::optional<GraphCache> cache;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (seconds_between(begin, Clock::now()) < 0.3 &&
          setup_s.size() < 401)) {
    cache.reset();
    cache.emplace();
    setup_s.push_back(cold_setup(items, *cache));
  }

  const bool cheap_setup =
      *std::min_element(setup_s.begin(), setup_s.end()) < kCheapSetupS;

  engine::RunContext context;
  context.graph_cache = &*cache;
  const std::string agg_path = out_dir + "/" + name + ".csv";

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::string> problems;
  std::int64_t failed_reps = 0;
  std::string first_bytes;
  // Repetition 0 warms the allocator, the pool and the page cache; its
  // output is checked like every other, but it is not timed.
  Clock::time_point timed_begin = Clock::now();
  for (int rep = 0;
       rep <= kMinTimedReps ||
       seconds_between(timed_begin, Clock::now()) < budget_s;
       ++rep) {
    const double cpu_before = cpu_seconds();
    const Clock::time_point start = Clock::now();
    engine::BatchResult result;
    {
      engine::CsvSink aggregate(agg_path);
      result = engine::run_experiment(spec, {&aggregate}, {}, context);
    }
    if (rep == 0) {
      timed_begin = Clock::now();
    } else {
      wall_s.push_back(seconds_between(start, Clock::now()));
      cpu_s.push_back(cpu_seconds() - cpu_before);
    }
    for (const Clock::time_point top_up = Clock::now();
         cheap_setup && seconds_between(top_up, Clock::now()) < kSetupTopUpS;) {
      GraphCache fresh;
      setup_s.push_back(cold_setup(items, fresh));
    }

    const std::size_t known = problems.size();
    std::string bytes = read_file(agg_path);
    if (first_bytes.empty()) {
      first_bytes = std::move(bytes);
    } else if (bytes != first_bytes) {
      problems.push_back("repetition " + std::to_string(rep) +
                         " wrote different CSV bytes");
    }
    if (result.interrupted) {
      problems.push_back("batch interrupted: " + result.interrupt_reason);
    }
    try {
      check_invariants(result, problems);
    } catch (const std::exception& error) {
      problems.push_back(error.what());
    }
    if (problems.size() > known) {
      ++failed_reps;
    }
  }

  json::Object out;
  out.emplace_back("setup_s", numbers(setup_s));
  out.emplace_back("wall_s", numbers(wall_s));
  out.emplace_back("cpu_s", numbers(cpu_s));
  out.emplace_back("peak_rss_bytes", engine::peak_rss_bytes());
  out.emplace_back("attempted",
                  static_cast<std::int64_t>(wall_s.size() + 1));
  out.emplace_back("failed", failed_reps);
  out.emplace_back("problems", strings(problems));
  json::Array files;
  files.emplace_back(agg_path);
  out.emplace_back("files", json::Value(std::move(files)));
  return json::Value(std::move(out));
}

// ---------------------------------------------------------------------
// Traced run: the layer split

/// Sink wrapper that counts rows and the time spent inside the sink.
class TimingSink final : public engine::RowSink {
 public:
  explicit TimingSink(engine::RowSink& inner) : inner_(inner) {}
  void begin(const std::vector<std::string>& columns) override {
    const Clock::time_point start = Clock::now();
    inner_.begin(columns);
    seconds_ += seconds_between(start, Clock::now());
  }
  void row(const std::vector<std::string>& cells) override {
    const Clock::time_point start = Clock::now();
    inner_.row(cells);
    seconds_ += seconds_between(start, Clock::now());
    ++rows_;
  }
  void finish() override {
    const Clock::time_point start = Clock::now();
    inner_.finish();
    seconds_ += seconds_between(start, Clock::now());
  }
  double seconds() const noexcept { return seconds_; }
  std::int64_t rows() const noexcept { return rows_; }

 private:
  engine::RowSink& inner_;
  double seconds_ = 0.0;
  std::int64_t rows_ = 0;
};

/// What one replayed unit recorded.  Each unit writes only its own slot.
struct UnitTrace {
  Clock::time_point start;
  Clock::time_point end;
  std::thread::id worker;
  std::int64_t steps = 0;
  std::int64_t checks = 0;
  double kernel_s = 0.0;
  double check_s = 0.0;
  double solve_s = 0.0;
  double value = 0.0;       // F (converging scenarios) or gap (solves)
  double predicted = 0.0;   // B.1 prediction (solve units)
};

struct TracedBatch {
  std::size_t cell = 0;
  bool solve = false;  // the one-unit prediction batch of a thm22 cell
  ModelKind kind = ModelKind::node;
  std::int64_t k = 1;
  Clock::time_point submitted;
  std::shared_ptr<std::vector<UnitTrace>> units;
  std::shared_ptr<ReplicaBatch> batch;
};

/// The run_until_converged loop, with step_burst and converged() timed.
void converge_timed(AveragingProcess& process, Rng& rng,
                    const ConvergenceOptions& options, UnitTrace& trace) {
  std::int64_t interval = options.check_interval;
  if (interval <= 0) {
    interval = std::max<std::int64_t>(1, process.graph().node_count() / 4);
  }
  const auto check = [&] {
    const Clock::time_point start = Clock::now();
    const bool done =
        process.converged(options.epsilon, options.use_plain_potential);
    trace.check_s += seconds_between(start, Clock::now());
    ++trace.checks;
    return done;
  };
  bool done = check();
  while (!done && process.time() < options.max_steps) {
    const std::int64_t burst =
        std::min(interval, options.max_steps - process.time());
    const Clock::time_point start = Clock::now();
    process.step_burst(rng, burst);
    trace.kernel_s += seconds_between(start, Clock::now());
    done = check();
  }
  trace.steps = process.time();
  trace.value = process.state().weighted_average();
}

/// Bytes one step reads and writes, from the element sizes of the arrays
/// the kernel touches (cache lines and prefetch ignored).
double bytes_per_step(ModelKind kind, std::int64_t k) {
  constexpr double index = sizeof(std::uint32_t);
  constexpr double value = sizeof(double);
  if (kind == ModelKind::edge) {
    return 2 * index + 2 * value + value;  // arc ends, both values, 1 write
  }
  // offsets[u], offsets[u+1], k neighbour ids, k+1 values, 1 write
  return 2 * index + static_cast<double>(k) * index +
         static_cast<double>(k + 1) * value + value;
}

struct Cell {
  engine::ExperimentSpec item;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<GraphSpectra> spectra;
  std::vector<double> initial;
};

json::Value run_traced(const engine::ExperimentSpec& spec) {
  const std::vector<engine::ExperimentSpec> items = grid_items(spec);
  std::vector<std::string> problems;

  // graph: GraphCache::get per cell, timing the builds that run.
  GraphCache graph_cache;
  double build_s = 0.0;
  std::vector<Cell> cells(items.size());
  for (std::size_t c = 0; c < items.size(); ++c) {
    cells[c].item = items[c];
    const engine::GraphSpec& graph_spec = items[c].graph;
    cells[c].graph = graph_cache.get(
        engine::graph_cache_key(graph_spec), [&graph_spec, &build_s] {
          const Clock::time_point start = Clock::now();
          Graph graph = engine::build_graph(graph_spec);
          build_s += seconds_between(start, Clock::now());
          return graph;
        });
  }
  const std::int64_t graph_hits = graph_cache.hits();
  const std::int64_t graph_builds = graph_cache.misses();
  const std::uint64_t graph_bytes = graph_cache.resident_bytes();

  engine::RunContext context;
  context.graph_cache = &graph_cache;

  // The untraced reference batch.
  engine::MemorySink reference_rows;
  const Clock::time_point untraced_start = Clock::now();
  const engine::BatchResult reference =
      engine::run_experiment(spec, {&reference_rows}, {}, context);
  const double untraced_s = seconds_between(untraced_start, Clock::now());

  // The replay: same cells, same streams, every layer call timed.
  SpectrumCache spectrum_cache;
  CellScheduler scheduler(spec.threads);
  std::vector<TracedBatch> batches;
  const Clock::time_point replay_start = Clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    Cell& cell = cells[c];
    const std::string key = engine::graph_cache_key(cell.item.graph);
    cell.spectra = spectrum_cache.get(key, cell.graph);
    cell.initial = engine::build_initial(cell.item.initial, *cell.graph,
                                         cell.spectra.get());
    const Cell* in = &cell;
    const auto submit = [&](std::int64_t replicas, std::uint64_t seed,
                            bool solve, ModelKind kind, std::int64_t k,
                            auto body) {
      TracedBatch traced;
      traced.cell = c;
      traced.solve = solve;
      traced.kind = kind;
      traced.k = k;
      traced.units = std::make_shared<std::vector<UnitTrace>>(
          static_cast<std::size_t>(replicas));
      traced.submitted = Clock::now();
      std::vector<UnitTrace>* slots = traced.units.get();
      traced.batch = scheduler.submit(
          replicas, seed, 1,
          [slots, body](std::int64_t r, Rng& rng, std::span<double>,
                        RowEmitter&) {
            UnitTrace& trace = (*slots)[static_cast<std::size_t>(r)];
            trace.start = Clock::now();
            trace.worker = std::this_thread::get_id();
            body(rng, trace);
            trace.end = Clock::now();
          });
      batches.push_back(std::move(traced));
    };
    const ModelConfig config =
        config_for_kind(cell.item.model, ModelKind::node);
    submit(cell.item.replicas, cell.item.seed, false, config.kind,
           config.k, [in, config](Rng& rng, UnitTrace& trace) {
             auto process = make_process(*in->graph, config, in->initial);
             converge_timed(*process, rng, in->item.convergence, trace);
           });
    submit(1, subseed(cell.item.seed, 0x9d), true, config.kind, config.k,
           [in, config](Rng&, UnitTrace& trace) {
             const Clock::time_point start = Clock::now();
             const WalkSpectrum& spectrum = in->spectra->walk();
             trace.solve_s = seconds_between(start, Clock::now());
             OpinionState probe(*in->graph, in->initial);
             trace.value = spectrum.gap;
             trace.predicted = theory::steps_to_epsilon(
                 theory::node_model_rho(spectrum.lambda2, config.alpha,
                                        config.k,
                                        in->graph->node_count(),
                                        config.lazy),
                 probe.phi_exact(), in->item.convergence.epsilon);
           });
  }
  for (const TracedBatch& traced : batches) {
    traced.batch->wait();
  }
  const Clock::time_point replay_end = Clock::now();
  const double traced_s = seconds_between(replay_start, replay_end);

  // Fidelity: the replay must reproduce the untraced rows exactly.
  const auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back("traced replay: " + what);
    }
  };
  std::int64_t steps = 0;
  std::int64_t checks = 0;
  double kernel_s = 0.0;
  double check_s = 0.0;
  std::map<std::string, double> solve_s_by_graph;
  double computed_bytes = 0.0;
  std::int64_t rows_steps = 0;
  for (const TracedBatch& traced : batches) {
    const std::vector<UnitTrace>& units = *traced.units;
    const std::vector<std::string>& row = reference.rows.at(traced.cell);
    if (traced.solve) {
      // Cells sharing a graph share its record: the first walk() call
      // solves and the others wait on its latch or hit the memo, so the
      // longest call per graph is the solve.
      double& solve_s = solve_s_by_graph[engine::graph_cache_key(
          cells[traced.cell].item.graph)];
      solve_s = std::max(solve_s, units[0].solve_s);
      expect(engine::fmt_sci(units[0].value, 2) ==
                     row[column(reference.columns, "1-l2(P)")] &&
                 engine::fmt_fixed(units[0].predicted, 0) ==
                     row[column(reference.columns, "T predicted (B.1)")],
             "spectral prediction differs in cell " +
                 std::to_string(traced.cell));
      continue;
    }
    RunningStats cell_steps;
    for (std::size_t r = 0; r < units.size(); ++r) {
      const UnitTrace& unit = units[r];
      steps += unit.steps;
      checks += unit.checks;
      kernel_s += unit.kernel_s;
      check_s += unit.check_s;
      computed_bytes += static_cast<double>(unit.steps) *
                        bytes_per_step(traced.kind, traced.k);
      cell_steps.add(static_cast<double>(unit.steps));
    }
    expect(engine::fmt_fixed(cell_steps.mean(), 0) ==
                   row[column(reference.columns, "T measured")] &&
               engine::fmt_fixed(cell_steps.mean_ci_halfwidth(), 0) ==
                   row[column(reference.columns, "+-CI(T)")],
           "T_eps differs in cell " + std::to_string(traced.cell));
    rows_steps += static_cast<std::int64_t>(std::llround(
        std::stod(row[column(reference.columns, "T measured")]) *
        static_cast<double>(units.size())));
  }
  // The rows carry rounded means, so their sum is exact only to half a
  // step per replica.
  const std::int64_t tolerance =
      static_cast<std::int64_t>(items.size()) * spec.replicas;
  expect(std::llabs(steps - rows_steps) <= tolerance,
         "core.steps " + std::to_string(steps) +
             " != sum of the rows' steps " + std::to_string(rows_steps));

  // scheduler: submit -> start waits, busy time, utilisation, tail.
  std::map<std::thread::id, Clock::time_point> last_end;
  double queue_wait_s = 0.0;
  double busy_s = 0.0;
  std::int64_t units_run = 0;
  Clock::time_point batch_end = replay_start;
  for (const TracedBatch& traced : batches) {
    for (const UnitTrace& unit : *traced.units) {
      ++units_run;
      queue_wait_s += seconds_between(traced.submitted, unit.start);
      busy_s += seconds_between(unit.start, unit.end);
      batch_end = std::max(batch_end, unit.end);
      Clock::time_point& last = last_end[unit.worker];
      last = std::max(last, unit.end);
    }
  }
  // A worker that never ran a unit was idle from the start.
  Clock::time_point first_idle =
      last_end.size() < scheduler.threads() ? replay_start : batch_end;
  for (const auto& [worker, end] : last_end) {
    first_idle = std::min(first_idle, end);
  }

  // spectral: the memoised records of the replay.
  std::int64_t solves = spectrum_cache.eigensolves();
  std::int64_t spectrum_hits = spectrum_cache.spectrum_hits();

  // engine: one more batch through timing sinks.
  engine::MemorySink timed_rows;
  TimingSink aggregate_timer(timed_rows);
  const Clock::time_point timed_start = Clock::now();
  engine::run_experiment(spec, {&aggregate_timer}, {}, context);
  // Both untraced batches count: one pair of runs alone is too noisy a
  // baseline for the overhead on a shared machine.
  const double untraced_mean_s =
      0.5 * (untraced_s + seconds_between(timed_start, Clock::now()));
  expect(timed_rows.rows() == reference_rows.rows(),
         "the timing-sink batch wrote different rows");

  const double replay_wall_s = seconds_between(replay_start, batch_end);
  json::Object layers;
  layers.emplace_back("graph.build_ms", build_s * 1e3);
  layers.emplace_back("graph.builds", graph_builds);
  layers.emplace_back(
      "graph.hit_ratio",
      static_cast<double>(graph_hits) /
          static_cast<double>(std::max<std::int64_t>(1, graph_hits +
                                                           graph_builds)));
  layers.emplace_back("graph.bytes", graph_bytes);
  double solve_s = 0.0;
  for (const auto& [key, seconds] : solve_s_by_graph) {
    solve_s += seconds;
  }
  layers.emplace_back("spectral.solve_ms", solve_s * 1e3);
  layers.emplace_back("spectral.solves", solves);
  layers.emplace_back(
      "spectral.hit_ratio",
      static_cast<double>(spectrum_hits) /
          static_cast<double>(std::max<std::int64_t>(1, spectrum_hits +
                                                           solves)));
  layers.emplace_back("core.steps", steps);
  layers.emplace_back("core.kernel_ms", kernel_s * 1e3);
  layers.emplace_back("core.kernel_steps_per_s",
                      kernel_s > 0.0 ? static_cast<double>(steps) / kernel_s
                                     : 0.0);
  layers.emplace_back(
      "core.bytes_per_step.computed",
      steps > 0 ? computed_bytes / static_cast<double>(steps) : 0.0);
  layers.emplace_back("core.checks", checks);
  layers.emplace_back("core.check_ms", check_s * 1e3);
  layers.emplace_back("core.check_share",
                      kernel_s + check_s > 0.0
                          ? check_s / (kernel_s + check_s)
                          : 0.0);
  layers.emplace_back("scheduler.units", units_run);
  layers.emplace_back("scheduler.queue_wait_ms",
                      queue_wait_s * 1e3 /
                          static_cast<double>(std::max<std::int64_t>(
                              1, units_run)));
  layers.emplace_back("scheduler.busy_ms", busy_s * 1e3);
  layers.emplace_back(
      "scheduler.utilization",
      busy_s / (static_cast<double>(scheduler.threads()) * replay_wall_s));
  layers.emplace_back("scheduler.tail_ms",
                      seconds_between(first_idle, batch_end) * 1e3);
  layers.emplace_back("engine.rows", aggregate_timer.rows());
  layers.emplace_back("engine.sink_ms", aggregate_timer.seconds() * 1e3);
  layers.emplace_back("trace.untraced_s", untraced_mean_s);
  layers.emplace_back("trace.traced_s", traced_s);
  layers.emplace_back("trace.overhead_share",
                      (traced_s - untraced_mean_s) / untraced_mean_s);

  json::Object out;
  out.emplace_back("layers", json::Value(std::move(layers)));
  out.emplace_back("peak_rss_bytes", engine::peak_rss_bytes());
  out.emplace_back("attempted", std::int64_t{1});
  out.emplace_back("failed", std::int64_t{problems.empty() ? 0 : 1});
  out.emplace_back("problems", strings(problems));
  return json::Value(std::move(out));
}

// ---------------------------------------------------------------------
// One-shot reference batches for the serve workload

int run_oneshot(const std::string& jobs_path) {
  std::ifstream in(jobs_path);
  if (!in) {
    throw std::runtime_error("cannot read " + jobs_path);
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      continue;
    }
    const json::Value job = json::parse(line.substr(tab + 1));
    std::map<std::string, std::string> kv;
    for (const auto& [key, value] : job.as_object()) {
      kv[key] = value.as_string();
    }
    engine::ExperimentSpec spec = engine::parse_spec(kv);
    spec.csv_path = line.substr(0, tab);
    spec.print_table = false;
    spec.threads = kOneshotThreads;
    engine::run_experiment_with_default_sinks(spec);
  }
  return 0;
}

std::string flag(const std::vector<std::string>& args,
                 const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (const std::string& arg : args) {
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  throw std::runtime_error("missing " + prefix);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    const std::string mode = args.empty() ? "" : args[0];
    if (mode == "build-info") {
      std::cout << build_info_json().dump() << "\n";
      return 0;
    }
    if (mode == "oneshot") {
      return run_oneshot(flag(args, "jobs"));
    }
    if (mode != "run") {
      std::cerr << "usage: perfbench_runner run|oneshot|build-info ...\n";
      return 2;
    }
    const std::string name = flag(args, "workload");
    const engine::ExperimentSpec spec =
        make_spec(name, std::stoull(flag(args, "seed")));
    const json::Value result =
        flag(args, "trace") == "1"
            ? run_traced(spec)
            : run_untraced(name, spec, std::stod(flag(args, "seconds")),
                           flag(args, "out-dir"));
    std::cout << result.dump() << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_runner: " << error.what() << "\n";
    return 1;
  }
}
