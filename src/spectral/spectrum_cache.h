// Memoised per-graph spectral solves.  The paper's tightness and
// convergence predictions (Thm. 2.2, Prop. B.1/B.2, Thm. 2.4) consume
// lambda_2 of the lazy walk matrix P or of the Laplacian L, and the
// f2_* initial states the matching eigenvectors; a sweep revisits the
// same graph in cell after cell.  A GraphSpectra record memoises four
// kinds per graph -- walk and Laplacian lambda_2 (sparse Lanczos) and
// walk and Laplacian f_2 (dense Jacobi, only for the f2_* states) --
// and the SpectrumCache shares one record per graph-cache key, so a
// whole sweep performs exactly one solve per distinct graph and kind.
//
// Locking mirrors GraphCache: the cache's global mutex only guards the
// key -> record map, never a solve.  Each record runs its solves under
// its own per-kind once-latch (std::call_once), so concurrent cells
// needing the *same* kind solve once while cells needing *different*
// graphs solve in parallel.
#ifndef OPINDYN_SPECTRAL_SPECTRUM_CACHE_H
#define OPINDYN_SPECTRAL_SPECTRUM_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/spectral/spectra.h"
#include "src/support/cache_limits.h"
#include "src/support/metrics.h"

namespace opindyn {

/// Lazily-computed spectral record of one immutable graph.  Each
/// accessor runs its solve on first use (on the *calling* thread, under
/// a per-kind once-latch) and returns the memoised result afterwards;
/// accessors are safe to call concurrently.  A non-null `metrics`
/// records one `eigensolve` span named after the kind, opened inside the
/// latch, so a span appears exactly when a solve runs.  The referenced
/// graph is kept alive by the record.
class GraphSpectra {
 public:
  explicit GraphSpectra(std::shared_ptr<const Graph> graph);

  /// lambda_2(P) and the gap 1 - lambda_2(P); solved once (kind "walk").
  const WalkSpectrum& walk(MetricsRegistry* metrics = nullptr) const;
  /// lambda_2(L); solved once (kind "laplacian").
  const LaplacianSpectrum& laplacian(MetricsRegistry* metrics = nullptr) const;
  /// f_2(P) as lazy_walk_f2 returns it; solved once (kind "walk_f2").
  const std::vector<double>& walk_f2(MetricsRegistry* metrics = nullptr) const;
  /// f_2(L) as laplacian_f2 returns it; solved once (kind
  /// "laplacian_f2").
  const std::vector<double>& laplacian_f2(
      MetricsRegistry* metrics = nullptr) const;

  const Graph& graph() const noexcept { return *graph_; }

  /// Solves this record has actually run (0..4, one per kind).
  std::int64_t solves() const noexcept;
  /// Accessor calls served from the memo without solving.
  std::int64_t hits() const noexcept;

  /// Heap bytes of the memoised results solved so far (grows as lazy
  /// solves complete; excludes the shared graph, which GraphCache
  /// accounts).  Safe to read while other threads solve.
  std::uint64_t memory_bytes() const noexcept;

 private:
  /// One memoised kind: its once-latch and its result.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::unique_ptr<const T> value;
  };

  /// Runs `solve` under `slot`'s latch on first use (inside an
  /// `eigensolve` span named `kind`), counting the solve and the
  /// result's bytes; later calls count a hit.
  template <typename T, typename Solve>
  const T& memoise(Slot<T>& slot, MetricsRegistry* metrics, const char* kind,
                   Solve solve) const;

  std::shared_ptr<const Graph> graph_;
  mutable Slot<WalkSpectrum> walk_;
  mutable Slot<LaplacianSpectrum> laplacian_;
  mutable Slot<std::vector<double>> walk_f2_;
  mutable Slot<std::vector<double>> laplacian_f2_;
  mutable std::atomic<std::int64_t> solves_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

/// Thread-safe memo from graph-cache key (see graph_cache_key) to the
/// graph's GraphSpectra record.  `get` only ever takes the map lock;
/// the eigensolves themselves run lazily inside the returned record.
/// Like GraphCache, the cache can be bounded (CacheLimits) for
/// process-lifetime use: eviction drops the LRU record from the map
/// (holders keep their shared_ptr; the next request re-creates an empty
/// record and re-solves lazily).  Eigensolve/hit totals stay cumulative
/// across evictions.  The default is the historical unbounded cache.
class SpectrumCache {
 public:
  SpectrumCache() = default;
  explicit SpectrumCache(CacheLimits limits) : limits_(limits) {}

  /// Returns the (shared) spectra record for `key`, creating an empty
  /// one holding `graph` on the first request.  No eigensolve runs
  /// here -- the record solves lazily on first accessor use.  With
  /// limits set, LRU records may be evicted (never the one returned).
  std::shared_ptr<GraphSpectra> get(const std::string& key,
                                    std::shared_ptr<const Graph> graph);

  std::size_t size() const;
  /// Requests that found an existing record / had to create one.
  /// Cumulative over the cache's lifetime (evictions don't subtract).
  std::int64_t hits() const;
  std::int64_t misses() const;
  /// Solves actually run across all records ever cached (the expensive
  /// work); a sweep sharing one graph and one kind reports exactly 1.
  /// Includes records since evicted.
  std::int64_t eigensolves() const;
  /// Spectrum accesses served from a memoised result (incl. evicted).
  std::int64_t spectrum_hits() const;
  /// Records dropped by the LRU bound (0 for an unbounded cache).
  std::int64_t evictions() const;
  /// Bytes of memoised spectra across the currently resident records
  /// (recomputed on read: records grow as their lazy solves complete).
  std::uint64_t resident_bytes() const;

  void clear();

 private:
  struct Record {
    std::shared_ptr<GraphSpectra> spectra;
    std::uint64_t last_use = 0;
  };

  /// Drops LRU records (never `keep`) until within limits.  Byte usage
  /// is recomputed per pass because records grow lazily.  Caller holds
  /// mutex_.
  void evict_locked(const GraphSpectra* keep);

  mutable std::mutex mutex_;
  std::map<std::string, Record> records_;
  CacheLimits limits_;
  std::uint64_t use_counter_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  /// Solve/hit counts carried over from evicted records, so the
  /// cumulative accessors never go backwards when a record is dropped.
  std::int64_t retired_solves_ = 0;
  std::int64_t retired_spectrum_hits_ = 0;
};

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_SPECTRUM_CACHE_H
