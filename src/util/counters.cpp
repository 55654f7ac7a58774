#include "util/counters.h"

#include <algorithm>
#include <cmath>

#include "util/snapshot_io.h"

namespace mrts {

std::size_t Histogram::bucket_of(double value) {
  if (!(value >= 1.0)) return 0;  // < 1, non-positive and NaN
  const int exponent = std::ilogb(value);  // floor(log2(value)) for v >= 1
  const std::size_t bucket = static_cast<std::size_t>(exponent) + 1;
  return std::min(bucket, kBuckets - 1);
}

void Histogram::observe(double value, std::uint64_t n) {
  if (n == 0) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  buckets_[bucket_of(value)] += n;
  // The product is exact whenever the bound test passes: a true product of
  // 2^53 or more never rounds below 2^53.
  const double times = static_cast<double>(n);
  if (value == std::floor(value) && sum_stays_exact(times * std::fabs(value))) {
    sum_ += times * value;
  } else {
    for (std::uint64_t i = 0; i < n; ++i) sum_ += value;
  }
}

bool Histogram::sum_stays_exact(double total) const {
  return sum_ == std::floor(sum_) &&
         std::fabs(sum_) + total < 9007199254740992.0 /* 2^53 */;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n == 0.0) continue;
    if (target <= cumulative + n) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double fraction = std::max(0.0, (target - cumulative) / n);
      const double value = lo + (hi - lo) * fraction;
      return std::clamp(value, min_, max_);
    }
    cumulative += n;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void CounterRegistry::add(std::string_view name, std::uint64_t delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void CounterRegistry::observe(std::string_view name, double value,
                              std::uint64_t n) {
  if (n == 0) return;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.observe(value, n);
}

std::uint64_t CounterRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

const Histogram* CounterRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void CounterRegistry::clear() {
  counters_.clear();
  histograms_.clear();
}

void Histogram::save_state(SnapshotWriter& w) const {
  w.u64(count_);
  w.f64(sum_);
  w.f64(min_);
  w.f64(max_);
  for (std::uint64_t b : buckets_) w.u64(b);
}

void Histogram::load_state(SnapshotReader& r) {
  count_ = r.u64();
  sum_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
  for (auto& b : buckets_) b = r.u64();
}

void CounterRegistry::save_state(SnapshotWriter& w) const {
  w.u64(counters_.size());
  for (const auto& [name, value] : counters_) {
    w.str(name);
    w.u64(value);
  }
  w.u64(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    w.str(name);
    histogram.save_state(w);
  }
}

void CounterRegistry::load_state(SnapshotReader& r) {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, Histogram, std::less<>> histograms;
  const std::size_t num_counters = r.length(1u << 20, "counter table");
  for (std::size_t i = 0; i < num_counters; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    counters.emplace(std::move(name), value);
  }
  const std::size_t num_histograms = r.length(1u << 20, "histogram table");
  for (std::size_t i = 0; i < num_histograms; ++i) {
    std::string name = r.str();
    Histogram h;
    h.load_state(r);
    histograms.emplace(std::move(name), h);
  }
  counters_ = std::move(counters);
  histograms_ = std::move(histograms);
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    add(name, value);
  }
  for (const auto& [name, histogram] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, histogram);
    } else {
      it->second.merge(histogram);
    }
  }
}

}  // namespace mrts
