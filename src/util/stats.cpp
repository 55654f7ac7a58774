#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/snapshot_io.h"

namespace mrts {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Ewma::Ewma(double alpha, double initial) : alpha_(alpha), value_(initial) {
  if (alpha_ <= 0.0) alpha_ = 1e-6;
  if (alpha_ > 1.0) alpha_ = 1.0;
}

void Ewma::observe(double observed) {
  // prediction <- prediction + alpha * (observed - prediction)
  value_ += alpha_ * (observed - value_);
  ++n_;
}

void Ewma::reset(double initial) {
  value_ = initial;
  n_ = 0;
}

template <typename Io, typename Self>
void Ewma::walk(Io& io, Self& self) {
  const std::size_t alpha_at = io.pos();
  io.f64(self.alpha_);
  // The constructor's clamp: a gain outside (0, 1] diverges.
  if (!(self.alpha_ > 0.0 && self.alpha_ <= 1.0)) {
    throw SnapshotError("snapshot EWMA gain out of range", alpha_at);
  }
  io.f64(self.value_);
  io.u64(self.n_);
}

void Ewma::save_state(SnapshotWriter& w) const { walk(w, *this); }
void Ewma::load_state(SnapshotReader& r) { walk(r, *this); }

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double arithmetic_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace mrts
