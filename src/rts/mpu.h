#pragma once
/// \file mpu.h
/// Monitoring & Prediction Unit (Section 4). Trigger instructions carry
/// forecasts {e, tf, tb} obtained from offline profiling; because the real
/// numbers drift with the input data, the MPU monitors the actual values of
/// every functional-block instance and updates the forecasts with a
/// lightweight error back-propagation scheme [12]: each prediction moves
/// toward the observation by a fraction alpha of the prediction error.

#include <optional>
#include <unordered_map>

#include "isa/trigger.h"
#include "rts/rts_interface.h"
#include "util/stats.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;
class CounterRegistry;
class SnapshotWriter;
class SnapshotReader;

class Mpu {
 public:
  struct Config {
    bool enabled = true;   ///< disabled -> trigger forecasts pass through
    double alpha = 0.5;    ///< back-propagation correction gain
  };

  Mpu() : Mpu(Config{}) {}
  explicit Mpu(Config config);

  /// Replaces the programmed forecasts with the learned ones where
  /// observations exist.
  TriggerInstruction refine(const TriggerInstruction& programmed) const;

  /// Feeds the observed statistics of a finished block instance. \p now is
  /// the block-end cycle, used only to timestamp forecast-error trace
  /// events; it does not influence the forecasts.
  void observe(const BlockObservation& observed, Cycles now = 0);

  /// Learned forecast for (block, kernel); nullopt if never observed.
  std::optional<TriggerEntry> forecast(FunctionalBlockId fb, KernelId k) const;

  std::uint64_t observations() const { return observations_; }

  void reset();

  /// Exact forecast-table capture/restore (rts/snapshot.h). Entries are
  /// written in ascending key order so the byte stream is independent of
  /// unordered_map iteration order (snapshot determinism contract).
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

  /// Attaches the flight recorder / counter registry (either may be null).
  void attach_observability(TraceRecorder* trace, CounterRegistry* counters) {
    trace_ = trace;
    counters_ = counters;
  }

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  struct KernelForecast {
    Ewma executions;
    Ewma time_to_first;
    Ewma time_between;
  };

  static std::uint64_t key(FunctionalBlockId fb, KernelId k) {
    return (static_cast<std::uint64_t>(raw(fb)) << 32) | raw(k);
  }

  Config config_;
  std::unordered_map<std::uint64_t, KernelForecast> forecasts_;
  std::uint64_t observations_ = 0;
  TraceRecorder* trace_ = nullptr;
  CounterRegistry* counters_ = nullptr;
};

}  // namespace mrts
