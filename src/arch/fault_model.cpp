#include "arch/fault_model.h"

#include <algorithm>

#include "util/snapshot_io.h"

namespace mrts {

FaultModelConfig FaultModelConfig::uniform(double rate, std::uint64_t seed,
                                           unsigned max_retries) {
  const double p = std::clamp(rate, 0.0, 1.0);
  FaultModelConfig config;
  config.seed = seed;
  config.fg_load_failure_prob = p;
  config.cg_load_failure_prob = p;
  config.transient_upset_prob = p;
  config.permanent_fault_prob = p;
  config.max_retries = max_retries;
  return config;
}

FaultModel::FaultModel(const FaultModelConfig& config)
    : config_(config), rng_(config.seed) {}

Cycles FaultModel::backoff(unsigned retry) const {
  // Clamp the shift: beyond 2^20 * base the backoff is already astronomical
  // relative to any load duration, and larger shifts would overflow.
  const unsigned shift = std::min(retry, 20u);
  return config_.retry_backoff_cycles << shift;
}

LoadFaultOutcome FaultModel::plan_load(Grain grain, Cycles duration) {
  LoadFaultOutcome out;
  out.port_cycles = duration;
  const double p = grain == Grain::kFine ? config_.fg_load_failure_prob
                                         : config_.cg_load_failure_prob;
  if (p <= 0.0) return out;
  for (unsigned attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (!rng_.bernoulli(p)) return out;  // this attempt passed its CRC
    ++stats_.injected;
    ++stats_.load_failures;
    if (attempt < config_.max_retries) {
      out.port_cycles += backoff(out.retries) + duration;
      ++out.retries;
      ++stats_.retries;
    } else {
      out.success = false;
      ++stats_.failed_loads;
      out.quarantine = permanent();
    }
  }
  return out;
}

bool FaultModel::upset() {
  if (!rng_.bernoulli(config_.transient_upset_prob)) return false;
  ++stats_.injected;
  ++stats_.transient_upsets;
  return true;
}

bool FaultModel::permanent() {
  return rng_.bernoulli(config_.permanent_fault_prob);
}

template <typename Io, typename Self>
void FaultModel::walk(Io& io, Self& self) {
  io.state(self.rng_);
  auto& stats = self.stats_;
  io.u64(stats.injected);
  io.u64(stats.load_failures);
  io.u64(stats.retries);
  io.u64(stats.failed_loads);
  io.u64(stats.transient_upsets);
  io.u64(stats.scrub_repairs);
  io.u64(stats.quarantined_prcs);
  io.u64(stats.quarantined_cg);
}

void FaultModel::save_state(SnapshotWriter& w) const { walk(w, *this); }
void FaultModel::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
