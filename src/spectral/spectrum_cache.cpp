#include "src/spectral/spectrum_cache.h"

#include <utility>

#include "src/support/assert.h"

namespace opindyn {

GraphSpectra::GraphSpectra(std::shared_ptr<const Graph> graph)
    : graph_(std::move(graph)) {
  OPINDYN_EXPECTS(graph_ != nullptr, "GraphSpectra needs a graph");
}

namespace {

/// Bytes a memoised result adds to its record.
std::uint64_t result_bytes(const WalkSpectrum& spectrum) {
  return sizeof(spectrum);
}

std::uint64_t result_bytes(const LaplacianSpectrum& spectrum) {
  return sizeof(spectrum);
}

std::uint64_t result_bytes(const std::vector<double>& vector) {
  return sizeof(vector) + vector.size() * sizeof(double);
}

}  // namespace

template <typename T, typename Solve>
const T& GraphSpectra::memoise(Slot<T>& slot, MetricsRegistry* metrics,
                               const char* kind, Solve solve) const {
  bool solved = false;
  std::call_once(slot.once, [&] {
    const ScopedSpan span(metrics, kind, "eigensolve");
    slot.value = std::make_unique<const T>(solve(*graph_));
    solves_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(result_bytes(*slot.value), std::memory_order_relaxed);
    solved = true;
  });
  if (!solved) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot.value;
}

const WalkSpectrum& GraphSpectra::walk(MetricsRegistry* metrics) const {
  return memoise(walk_, metrics, "walk", lazy_walk_spectrum);
}

const LaplacianSpectrum& GraphSpectra::laplacian(
    MetricsRegistry* metrics) const {
  return memoise(laplacian_, metrics, "laplacian", laplacian_spectrum);
}

const std::vector<double>& GraphSpectra::walk_f2(
    MetricsRegistry* metrics) const {
  return memoise(walk_f2_, metrics, "walk_f2", lazy_walk_f2);
}

const std::vector<double>& GraphSpectra::laplacian_f2(
    MetricsRegistry* metrics) const {
  return memoise(laplacian_f2_, metrics, "laplacian_f2",
                 opindyn::laplacian_f2);
}

std::int64_t GraphSpectra::solves() const noexcept {
  return solves_.load(std::memory_order_relaxed);
}

std::int64_t GraphSpectra::hits() const noexcept {
  return hits_.load(std::memory_order_relaxed);
}

std::uint64_t GraphSpectra::memory_bytes() const noexcept {
  return bytes_.load(std::memory_order_relaxed) + sizeof(GraphSpectra);
}

std::shared_ptr<GraphSpectra> SpectrumCache::get(
    const std::string& key, std::shared_ptr<const Graph> graph) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it != records_.end()) {
    ++hits_;
    it->second.last_use = ++use_counter_;
    // Enforce the byte cap on hits too: resident bytes grow *after*
    // insertion as lazy walk()/laplacian() solves complete, so a warm
    // stream of repeat keys must still trigger eviction.
    const std::shared_ptr<GraphSpectra> spectra = it->second.spectra;
    evict_locked(spectra.get());
    return spectra;
  }
  ++misses_;
  auto record = std::make_shared<GraphSpectra>(std::move(graph));
  records_.emplace(key, Record{record, ++use_counter_});
  evict_locked(record.get());
  return record;
}

void SpectrumCache::evict_locked(const GraphSpectra* keep) {
  while (true) {
    const bool over_entries =
        limits_.max_entries != 0 && records_.size() > limits_.max_entries;
    // Recomputed per pass: records grow as their lazy solves complete,
    // so there is no stable incremental byte total to maintain.
    std::uint64_t bytes = 0;
    if (limits_.max_bytes != 0) {
      for (const auto& [key, record] : records_) {
        bytes += record.spectra->memory_bytes();
      }
    }
    const bool over_bytes = limits_.max_bytes != 0 && bytes > limits_.max_bytes;
    if (!over_entries && !over_bytes) {
      return;
    }
    auto victim = records_.end();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (it->second.spectra.get() == keep) {
        continue;
      }
      if (victim == records_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == records_.end()) {
      return;
    }
    retired_solves_ += victim->second.spectra->solves();
    retired_spectrum_hits_ += victim->second.spectra->hits();
    ++evictions_;
    records_.erase(victim);
  }
}

std::size_t SpectrumCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::int64_t SpectrumCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t SpectrumCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::int64_t SpectrumCache::eigensolves() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = retired_solves_;
  for (const auto& [key, record] : records_) {
    total += record.spectra->solves();
  }
  return total;
}

std::int64_t SpectrumCache::spectrum_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = retired_spectrum_hits_;
  for (const auto& [key, record] : records_) {
    total += record.spectra->hits();
  }
  return total;
}

std::int64_t SpectrumCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t SpectrumCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, record] : records_) {
    total += record.spectra->memory_bytes();
  }
  return total;
}

void SpectrumCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  retired_solves_ = 0;
  retired_spectrum_hits_ = 0;
}

}  // namespace opindyn
