#pragma once
/// \file counters.h
/// Named counter/histogram registry, the metrics half of the flight
/// recorder (util/trace.h). Components increment counters through an
/// optional `CounterRegistry*` that defaults to nullptr — the same
/// zero-overhead-when-off contract as tracing: one branch on a pointer per
/// site when detached.
///
/// Registries are per simulator instance; the library is single-threaded.
/// A sweep that keeps one registry per point merges them afterwards **in
/// point order**: counter addition is commutative, but histogram double-sums
/// are not bitwise order-independent, so a fixed merge order is what keeps
/// the printed means byte-identical from run to run.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// Fixed-bucket log2 histogram plus exact count/sum/min/max. Buckets cover
/// value magnitudes [2^(i-1), 2^i); bucket 0 collects everything < 1
/// (including non-positive values).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  /// Records \p n observations of \p value, bit-identical to n single
  /// observations in O(1): while \p value and the running sum are integers
  /// whose partial sums all stay below 2^53 every addition is exact, so one
  /// product replaces the n additions; otherwise it adds n times.
  void observe(double value, std::uint64_t n = 1);

  /// True when adding integer observations that total \p total (>= 0), in
  /// any order, keeps every partial sum exact: the running sum is an
  /// integer and sum + total stays below 2^53 in magnitude.
  bool sum_stays_exact(double total) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  /// Estimated value at quantile \p p in [0, 1] (p = 0.5 -> median).
  /// Nearest-rank target p * count is located by walking the cumulative
  /// bucket counts, then interpolated linearly inside the bucket's
  /// [2^(i-1), 2^i) range — exact when the target lands on a cumulative
  /// bucket boundary (returns the bucket's upper edge) — and finally
  /// clamped to the observed [min, max], which makes single-value
  /// distributions exact too. Returns 0 for an empty histogram.
  double percentile(double p) const;

  /// Bucket index a value falls into.
  static std::size_t bucket_of(double value);

  /// Adds \p other's observations into this histogram.
  void merge(const Histogram& other);

  /// Exact capture/restore (rts/snapshot.h): the running double sum is
  /// order-dependent, so the restored bit pattern must equal the live one.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Registry of named monotonic counters and histograms. Names are created on
/// first use; snapshots iterate in lexicographic name order (std::map), so
/// rendering a snapshot is deterministic.
class CounterRegistry {
 public:
  /// Increments counter \p name by \p delta (creating it at 0).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Records \p n observations of \p value into histogram \p name
  /// (creating it empty unless n is 0).
  void observe(std::string_view name, double value, std::uint64_t n = 1);

  /// Current value of counter \p name; 0 if it was never incremented.
  std::uint64_t counter(std::string_view name) const;

  /// Histogram \p name, or nullptr if it was never observed.
  const Histogram* histogram(std::string_view name) const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  bool empty() const { return counters_.empty() && histograms_.empty(); }
  void clear();

  /// Adds \p other's counters and histograms into this registry. Calling
  /// merge over per-point registries in point order yields a deterministic
  /// aggregate.
  void merge(const CounterRegistry& other);

  /// Whole-registry capture/restore (rts/snapshot.h). load_state replaces
  /// the current contents; names round-trip in lexicographic order.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mrts
