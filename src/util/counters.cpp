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

template <typename Io, typename Self>
void Histogram::walk(Io& io, Self& self) {
  io.u64(self.count_);
  io.f64(self.sum_);
  io.f64(self.min_);
  io.f64(self.max_);
  for (auto& b : self.buckets_) io.u64(b);
}

void Histogram::save_state(SnapshotWriter& w) const { walk(w, *this); }
void Histogram::load_state(SnapshotReader& r) { walk(r, *this); }

template <typename Io, typename Self>
void CounterRegistry::walk(Io& io, Self& self) {
  io.map(self.counters_, 1u << 20, "counter table",
         [](auto& io, auto& name, auto& value) {
           io.str(name);
           io.u64(value);
         });
  io.map(self.histograms_, 1u << 20, "histogram table",
         [](auto& io, auto& name, auto& histogram) {
           io.str(name);
           io.state(histogram);
         });
}

void CounterRegistry::save_state(SnapshotWriter& w) const { walk(w, *this); }
void CounterRegistry::load_state(SnapshotReader& r) { walk(r, *this); }

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
