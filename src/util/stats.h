#pragma once
/// \file stats.h
/// Small online-statistics helpers used by the monitoring unit and the
/// benchmark harnesses.

#include <cstddef>
#include <vector>

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exponentially weighted moving average. Used by the MPU's lightweight
/// error-back-propagation forecast update (see [12] in the paper): the new
/// prediction moves toward the observed value by a fraction alpha of the
/// observed prediction error.
class Ewma {
 public:
  /// \param alpha correction gain in (0, 1]; larger follows observations
  ///        faster.
  /// \param initial initial prediction before any observation.
  explicit Ewma(double alpha = 0.5, double initial = 0.0);

  /// Back-propagates the error between \p observed and the current prediction.
  void observe(double observed);

  double prediction() const { return value_; }
  double alpha() const { return alpha_; }
  std::size_t observations() const { return n_; }

  /// Resets to a fresh initial prediction.
  void reset(double initial);

  /// Exact state capture/restore (rts/snapshot.h): alpha, the prediction's
  /// IEEE bit pattern and the observation count.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);
  double alpha_;
  double value_;
  std::size_t n_ = 0;
};

/// Geometric mean of a sequence of positive values (0 if empty).
double geometric_mean(const std::vector<double>& values);

/// Arithmetic mean (0 if empty).
double arithmetic_mean(const std::vector<double>& values);

}  // namespace mrts
