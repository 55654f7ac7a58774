#include "rts/mpu.h"

#include <algorithm>
#include <cmath>

#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {

Mpu::Mpu(Config config) : config_(config) {}

TriggerInstruction Mpu::refine(const TriggerInstruction& programmed) const {
  if (!config_.enabled) return programmed;
  TriggerInstruction refined = programmed;
  for (auto& entry : refined.entries) {
    const auto it =
        forecasts_.find(key(programmed.functional_block, entry.kernel));
    if (it == forecasts_.end()) continue;
    const KernelForecast& f = it->second;
    entry.expected_executions = std::max(0.0, f.executions.prediction());
    entry.time_to_first =
        static_cast<Cycles>(std::max(0.0, f.time_to_first.prediction()));
    entry.time_between =
        static_cast<Cycles>(std::max(0.0, f.time_between.prediction()));
  }
  return refined;
}

void Mpu::observe(const BlockObservation& observed, Cycles now) {
  if (!config_.enabled) return;
  for (const auto& k : observed.kernels) {
    const std::uint64_t id = key(observed.functional_block, k.kernel);
    auto it = forecasts_.find(id);
    if (it != forecasts_.end()) {
      // Forecast error of this block instance, measured before the
      // back-propagation update consumes the observation.
      const double predicted = it->second.executions.prediction();
      if (trace_ != nullptr) {
        trace_->record({TraceEventKind::kMpuError, kTrackMpu, now, 0,
                        raw(observed.functional_block), raw(k.kernel),
                        predicted, k.executions});
      }
      if (counters_ != nullptr) {
        counters_->observe("mpu.exec_forecast_abs_error",
                           std::abs(predicted - k.executions));
      }
    }
    if (counters_ != nullptr) counters_->add("mpu.observations");
    if (it == forecasts_.end()) {
      KernelForecast f{Ewma(config_.alpha, k.executions),
                       Ewma(config_.alpha, static_cast<double>(k.time_to_first)),
                       Ewma(config_.alpha, static_cast<double>(k.time_between))};
      forecasts_.emplace(id, f);
    } else {
      it->second.executions.observe(k.executions);
      it->second.time_to_first.observe(static_cast<double>(k.time_to_first));
      it->second.time_between.observe(static_cast<double>(k.time_between));
    }
    ++observations_;
  }
}

std::optional<TriggerEntry> Mpu::forecast(FunctionalBlockId fb,
                                          KernelId k) const {
  const auto it = forecasts_.find(key(fb, k));
  if (it == forecasts_.end()) return std::nullopt;
  TriggerEntry entry;
  entry.kernel = k;
  entry.expected_executions = it->second.executions.prediction();
  entry.time_to_first =
      static_cast<Cycles>(std::max(0.0, it->second.time_to_first.prediction()));
  entry.time_between =
      static_cast<Cycles>(std::max(0.0, it->second.time_between.prediction()));
  return entry;
}

void Mpu::reset() {
  forecasts_.clear();
  observations_ = 0;
}

template <typename Io, typename Self>
void Mpu::walk(Io& io, Self& self) {
  io.map(self.forecasts_, 1u << 20, "MPU forecast table",
         [](auto& io, auto& id, auto& f) {
           io.u64(id);
           io.state(f.executions);
           io.state(f.time_to_first);
           io.state(f.time_between);
           // Forecasts average observed counts and cycles, and refine()
           // converts them to Cycles: each must lie in [0, 2^64).
           const auto in_range = [](const Ewma& e) {
             return e.prediction() >= 0.0 && e.prediction() < 0x1p64;
           };
           if (!in_range(f.executions) || !in_range(f.time_to_first) ||
               !in_range(f.time_between)) {
             throw SnapshotError("snapshot MPU forecast out of range",
                                 io.pos());
           }
         });
  io.u64(self.observations_);
}

void Mpu::save_state(SnapshotWriter& w) const { walk(w, *this); }
void Mpu::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
