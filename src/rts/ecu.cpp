#include "rts/ecu.h"

#include <algorithm>
#include <string_view>

#include "sim/obs_accum.h"
#include "sim/schedule.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {

namespace {
/// Counter names per ImplKind (same order as the enum).
constexpr std::array<const char*, kNumImplKinds> kExecCounterNames = {
    "ecu.executions.risc", "ecu.executions.mono_cg",
    "ecu.executions.intermediate", "ecu.executions.full_ise",
    "ecu.executions.covered_ise"};
constexpr std::string_view kLatencyHistogram = "ecu.exec_latency_cycles";
}  // namespace

const char* to_string(ImplKind kind) {
  switch (kind) {
    case ImplKind::kRisc: return "RISC";
    case ImplKind::kMonoCg: return "monoCG";
    case ImplKind::kIntermediate: return "intermediate";
    case ImplKind::kFullIse: return "full-ISE";
    case ImplKind::kCoveredIse: return "covered-ISE";
  }
  return "?";
}

Ecu::Ecu(const IseLibrary& lib, FabricManager& fabric, Config config)
    : lib_(&lib), fabric_(&fabric), config_(config) {}

void Ecu::append_ise_options(const IseVariant& ise, bool is_selected,
                             const std::vector<Cycles>* installed_prefix,
                             std::vector<Option>& timeline) const {
  const std::size_t n = ise.num_data_paths();

  // Availability of each prefix level from the live fabric state: the r-th
  // occurrence of a data path in the prefix maps to the r-th placed instance
  // (sorted by ready time). Ready times are cached per data path keyed on
  // the fabric's state epoch — they are a pure function of fabric state, so
  // the cache stays valid across kernels and even blocks until the next
  // mutation; occurrence counters are stamped per call instead of cleared.
  const std::uint64_t ready_stamp = fabric_->state_epoch() + 1;
  const std::uint64_t occ_stamp = ++occurrence_call_;
  Cycles prefix = 0;
  bool uses_cg = false;
  for (std::size_t i = 0; i < n; ++i) {
    const DataPathId dp = ise.data_paths[i];
    const std::size_t di = raw(dp);
    if (di >= ready_cache_.size()) {
      ready_cache_.resize(di + 1);
      ready_stamp_.resize(di + 1, 0);
      occurrence_.resize(di + 1, 0);
      occurrence_stamp_.resize(di + 1, 0);
    }
    if (ready_stamp_[di] != ready_stamp) {
      fabric_->append_instance_ready_times(dp, ready_cache_[di]);
      ready_stamp_[di] = ready_stamp;
    }
    if (occurrence_stamp_[di] != occ_stamp) {
      occurrence_[di] = 0;
      occurrence_stamp_[di] = occ_stamp;
    }
    const std::vector<Cycles>& times = ready_cache_[di];
    const unsigned r = occurrence_[di]++;
    Cycles ready_live = kNeverCycles;
    if (r < times.size()) ready_live = times[r];

    Cycles ready = ready_live;
    if (installed_prefix != nullptr) {
      // The installer's own claim is authoritative for the selected ISE;
      // the live view can only improve it (shared instances ready earlier).
      ready = std::min(ready, (*installed_prefix)[i]);
    } else if (!config_.use_cross_coverage) {
      continue;
    }
    if (ready == kNeverCycles) break;  // this and later levels never arrive
    prefix = std::max(prefix, ready);
    uses_cg = uses_cg || lib_->data_paths()[dp].grain == Grain::kCoarse;

    const std::size_t level = i + 1;
    const bool full = level == n;
    if (!config_.use_intermediates && !full) continue;

    Option opt;
    opt.at = prefix;
    opt.latency = ise.latency_after[level];
    opt.kind = full ? (is_selected ? ImplKind::kFullIse : ImplKind::kCoveredIse)
                    : (is_selected ? ImplKind::kIntermediate
                                   : ImplKind::kCoveredIse);
    opt.uses_cg = uses_cg;
    timeline.push_back(opt);
  }
}

void Ecu::rebuild_kernel(KernelId k, KernelState& st, const IsePlacement* placed,
                         Cycles now) const {
  const Kernel& kernel = lib_->kernel(k);
  st.timeline.clear();
  st.next = 0;
  st.current_latency = kernel.sw_latency;
  st.current_kind = ImplKind::kRisc;
  st.current_uses_cg = false;
  st.mono_attempted = false;
  st.built = true;

  if (placed != nullptr && placed->ise != kInvalidIse) {
    append_ise_options(lib_->ise(placed->ise), /*is_selected=*/true,
                       &placed->prefix_ready, st.timeline);
  }
  if (config_.use_cross_coverage) {
    for (IseId other : kernel.ises) {
      if (placed != nullptr && other == placed->ise) continue;
      append_ise_options(lib_->ise(other), /*is_selected=*/false, nullptr,
                         st.timeline);
    }
  }
  std::sort(st.timeline.begin(), st.timeline.end(),
            [](const Option& a, const Option& b) { return a.at < b.at; });

  // Consume everything already available at block start.
  while (st.next < st.timeline.size() && st.timeline[st.next].at <= now) {
    const Option& opt = st.timeline[st.next];
    if (opt.latency < st.current_latency) {
      st.current_latency = opt.latency;
      st.current_kind = opt.kind;
      st.current_uses_cg = opt.uses_cg;
    }
    ++st.next;
  }
}

void Ecu::begin_block(const std::vector<IsePlacement>& placements,
                      Cycles now) {
  if (state_.size() < lib_->num_kernels()) state_.resize(lib_->num_kernels());
  // Every kernel keeps only its monoCG knowledge (a loaded context may still
  // be resident); the timeline is rebuilt lazily on first execution. Steady
  // memos die with the block: a new installation changes the fabric without
  // necessarily passing through a mutation the epoch would catch for a
  // runtime that reuses a prior selection.
  for (KernelState& st : state_) st.next = kNeverCycles;  // needs rebuild
  for (SteadyMemo& memo : memo_) memo.stamp = 0;
  for (const auto& p : placements) {
    if (raw(p.kernel) >= state_.size()) state_.resize(raw(p.kernel) + 1);
    rebuild_kernel(p.kernel, state_[raw(p.kernel)], &p, now);
  }
  last_executed_ = kInvalidKernel;
}

Ecu::KernelState& Ecu::state_for(KernelId k, Cycles now) {
  if (raw(k) >= state_.size()) state_.resize(raw(k) + 1);
  KernelState& st = state_[raw(k)];
  if (!st.built || st.next == kNeverCycles) {
    rebuild_kernel(k, st, nullptr, now);  // preserves st.mono_ready
  }
  return st;
}

ExecOutcome Ecu::execute(KernelId k, Cycles now) {
  const Kernel& kernel = lib_->kernel(k);
  KernelState& st = state_for(k, now);

  // Advance the timeline: implementations only get better over the block.
  while (st.next < st.timeline.size() && st.timeline[st.next].at <= now) {
    const Option& opt = st.timeline[st.next];
    if (opt.latency < st.current_latency) {
      st.current_latency = opt.latency;
      st.current_kind = opt.kind;
      st.current_uses_cg = opt.uses_cg;
      if (trace_ != nullptr) {
        // Timestamped at the availability point, not the execution that
        // noticed it — the trace shows when the upgrade became possible.
        trace_->record({TraceEventKind::kEcuUpgrade, kTrackEcu, opt.at, 0,
                        raw(k), static_cast<std::uint32_t>(opt.kind),
                        static_cast<double>(opt.latency), 0.0});
      }
    }
    ++st.next;
  }

  Cycles latency = st.current_latency;
  ImplKind kind = st.current_kind;
  bool uses_cg = st.current_uses_cg;

  // (c): monoCG-Extension only when nothing of the selected/covered ISEs is
  // available yet (Fig. 7 priority). With every CG fabric quarantined the
  // ladder bottoms out at (d): plain RISC execution on the core — the
  // all-fabrics-dead machine still completes every kernel.
  if (kind == ImplKind::kRisc && config_.use_mono_cg && kernel.has_mono_cg() &&
      fabric_->usable(Grain::kCoarse) > 0) {
    const IseVariant& mono = lib_->ise(kernel.mono_cg);
    const DataPathId mono_dp = mono.data_paths.front();
    if (st.mono_ready <= now &&
        fabric_->available_instances(mono_dp, now) == 0) {
      st.mono_ready = kNeverCycles;  // evicted since we last used it
    }
    if (st.mono_ready > now && !st.mono_attempted) {
      const auto ready = fabric_->acquire_mono_cg(mono_dp, now);
      if (ready) st.mono_ready = *ready;
      st.mono_attempted = true;
      if (trace_ != nullptr) {
        trace_->record({TraceEventKind::kMonoCgAttempt, kTrackEcu, now, 0,
                        raw(k), ready.has_value() ? 1u : 0u,
                        ready ? static_cast<double>(*ready) : 0.0, 0.0});
      }
      if (counters_ != nullptr) {
        counters_->add(ready ? "ecu.mono_cg_acquired" : "ecu.mono_cg_denied");
      }
    }
    if (st.mono_ready <= now) {
      latency = mono.full_latency();
      kind = ImplKind::kMonoCg;
      uses_cg = true;
    }
  }

  // Context-switch penalty: executing on a CG fabric whose active context
  // belonged to a different kernel costs one 2-cycle switch.
  if (uses_cg && last_executed_ != k) {
    const Cycles switch_cost = CgFabricParams{}.context_switch_cycles;
    latency += switch_cost;
    stats_.context_switch_cycles += switch_cost;
  }
  last_executed_ = k;

  stats_.executions[static_cast<std::size_t>(kind)]++;
  stats_.cycles[static_cast<std::size_t>(kind)] += latency;
  stats_.saved_vs_risc +=
      kernel.sw_latency > latency ? kernel.sw_latency - latency : 0;

  if (observing_) {
    note_execution(st, k, kind, latency, now);
  }
  return ExecOutcome{latency, kind};
}

Cycles Ecu::execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                        std::size_t n, Cycles gap_total,
                        std::uint64_t* impl_executions, Cycles* impl_cycles,
                        Cycles* first_exec_start) {
  const Kernel& kernel = lib_->kernel(k);
  Cycles gap_consumed = 0;
  std::size_t i = 0;
  while (i < n) {
    cursor += events[i].gap_before;
    gap_consumed += events[i].gap_before;
    if (i == 0) *first_exec_start = cursor;
    const ExecOutcome out = execute(k, cursor);
    impl_executions[static_cast<std::size_t>(out.impl)]++;
    impl_cycles[static_cast<std::size_t>(out.impl)] += out.latency;
    cursor += out.latency;
    ++i;

    // Steady-state probe, also after the run's last execution: the memo it
    // leaves lets the kernel's later runs commit without the exact path.
    // last_executed_ == k now, so subsequent executions in this run never
    // pay the context-switch penalty.
    const bool steady =
        derive_steady(k, kernel, state_[raw(k)], cursor - out.latency);
    if (i == n) break;
    if (!steady) continue;
    const SteadyMemo& memo = memo_[raw(k)];

    // No better implementation (nor a pending monoCG flip) may arrive
    // before the run's last execution starts.
    const std::size_t m = n - i;
    const Cycles latency = memo.latency;
    const Cycles remaining_gap = gap_total - gap_consumed;
    const Cycles last_exec_start =
        cursor + remaining_gap + (static_cast<Cycles>(m) - 1) * latency;
    if (last_exec_start > memo.until) {
      continue;  // the decision changes mid-run — stay on the exact path
    }

    // Bulk commit: identical state, totals and counters as m more
    // execute() calls, none of which would record a trace event.
    const auto ki = static_cast<std::size_t>(memo.kind);
    stats_.executions[ki] += m;
    stats_.cycles[ki] += static_cast<Cycles>(m) * latency;
    stats_.saved_vs_risc += static_cast<Cycles>(m) * memo.saved;
    impl_executions[ki] += m;
    impl_cycles[ki] += static_cast<Cycles>(m) * latency;
    if (counters_ != nullptr) {
      counters_->add(kExecCounterNames[ki], m);
      counters_->observe(kLatencyHistogram, static_cast<double>(latency), m);
    }
    return cursor + remaining_gap + static_cast<Cycles>(m) * latency;
  }
  return cursor;
}

bool Ecu::derive_steady(KernelId k, const Kernel& kernel, const KernelState& st,
                        Cycles now) {
  // Horizon from the timeline: the memo holds strictly before the next
  // (unconsumed) availability point.
  Cycles until = kNeverCycles;
  if (st.next < st.timeline.size()) until = st.timeline[st.next].at - 1;

  ImplKind kind = st.current_kind;
  Cycles latency = st.current_latency;
  bool uses_cg = st.current_uses_cg;
  if (kind == ImplKind::kRisc && config_.use_mono_cg && kernel.has_mono_cg() &&
      fabric_->usable(Grain::kCoarse) > 0) {
    if (st.mono_ready <= now) {
      // monoCG decided the execution at `now`. At a fixed fabric state
      // availability is monotone in time, so the context stays usable for
      // the whole horizon (any fabric mutation bumps the state epoch and
      // kills the memo).
      const IseVariant& mono = lib_->ise(kernel.mono_cg);
      latency = mono.full_latency();
      kind = ImplKind::kMonoCg;
      uses_cg = true;
    } else if (st.mono_ready != kNeverCycles) {
      // A monoCG context arrives mid-block: the decision flips exactly at
      // mono_ready, so the RISC memo only holds strictly before it.
      until = std::min(until, st.mono_ready - 1);
    } else if (!st.mono_attempted) {
      return false;  // an acquisition attempt is still due
    }
    // else: acquisition failed for this block — the decision stays RISC.
  }

  if (raw(k) >= memo_.size()) memo_.resize(state_.size());
  SteadyMemo& memo = memo_[raw(k)];
  memo.stamp = fabric_->state_epoch() + 1;
  memo.until = until;
  memo.latency = latency;
  memo.switch_cost = uses_cg ? CgFabricParams{}.context_switch_cycles : 0;
  const Cycles sw = kernel.sw_latency;
  memo.saved = sw > latency ? sw - latency : 0;
  const Cycles switched = latency + memo.switch_cost;
  memo.saved_switched = sw > switched ? sw - switched : 0;
  memo.kind = kind;
  return true;
}

Cycles Ecu::execute_events(const ExecEvent* events, const ExecRun* runs,
                           std::size_t num_runs, Cycles cursor,
                           std::uint64_t* impl_executions, Cycles* impl_cycles,
                           ObservationSink& obs) {
  std::size_t r = 0;
  while (r < num_runs) {
    r = counters_ != nullptr
            ? commit_steady<true>(runs, num_runs, r, cursor, impl_executions,
                                  impl_cycles, obs)
            : commit_steady<false>(runs, num_runs, r, cursor, impl_executions,
                                   impl_cycles, obs);
    if (r == num_runs) break;
    // Exact path; derives/refreshes the kernel's memo once steady. It may
    // acquire a monoCG context and so bump the epoch, which ends the stretch
    // of memo commits before it.
    const ExecRun& run = runs[r];
    Cycles first_exec_start = 0;
    cursor = execute_run(run.kernel, cursor, events + run.first_event,
                         run.count, run.gap_total, impl_executions,
                         impl_cycles, &first_exec_start);
    obs.note_run(run, first_exec_start, cursor);
    ++r;
  }
  return cursor;
}

template <bool kCounting>
std::size_t Ecu::commit_steady(const ExecRun* runs, std::size_t num_runs,
                               std::size_t r, Cycles& cursor,
                               std::uint64_t* impl_executions,
                               Cycles* impl_cycles, ObservationSink& obs) {
  // Memo commits never touch the fabric, so the epoch holds for the whole
  // stretch. With an unchanged epoch and an execution inside its kernel's
  // horizon, the per-event path provably makes the memo's (kind, latency)
  // decision and records no trace event (the kind is the one last traced
  // and no timeline point is crossed). Totals and execution counters gather
  // in locals and are flushed once at the end; latency observations go to
  // the histogram as they are committed.
  const std::uint64_t stamp = fabric_->state_epoch() + 1;
  const SteadyMemo* memo = memo_.data();
  const std::size_t num_memos = memo_.size();
  const RunChunks* chunks = obs.chunks();
  const std::size_t width = chunks != nullptr ? chunks->kernels.size() : 0;
  std::array<std::uint64_t, kNumImplKinds> executions{};
  std::array<Cycles, kNumImplKinds> cycles{};
  Cycles switch_cycles = 0;
  Cycles saved = 0;
  KernelId last = last_executed_;

  // Whether the whole chunks [c, e) commit at once: every kernel with runs
  // in them has a memo at this epoch, the cursor after them lies within the
  // smallest of those kernels' horizons (so no execution of the stretch
  // starts beyond any of them) and, with counters, the latency histogram's
  // sum stays exact when the stretch's latencies are added kernel by kernel
  // rather than in execution order. Growing e only adds kernels, cycles and
  // latencies, so the test turns from true to false at most once.
  const auto fits = [&](std::size_t c, std::size_t e, const Histogram* h) {
    const RunCount* from = &chunks->counts[c * width];
    const RunCount* to = &chunks->counts[e * width];
    Cycles exec_cycles = 0;
    Cycles horizon = kNeverCycles;
    for (std::size_t j = 0; j < width; ++j) {
      const std::uint32_t n_runs = to[j].runs - from[j].runs;
      if (n_runs == 0) continue;
      const std::size_t kid = raw(chunks->kernels[j]);
      if (kid >= num_memos || memo[kid].stamp != stamp) return false;
      const SteadyMemo& m = memo[kid];
      exec_cycles += (to[j].executions - from[j].executions) * m.latency +
                     n_runs * m.switch_cost;
      horizon = std::min(horizon, m.until);
    }
    if (kCounting && (h == nullptr || !h->sum_stays_exact(
                                          static_cast<double>(exec_cycles)))) {
      return false;
    }
    const Cycles gaps =
        chunks->chunks[e].gaps_before - chunks->chunks[c].gaps_before;
    return cursor + gaps + exec_cycles <= horizon;
  };

  while (r < num_runs) {
    if (chunks != nullptr && r % kChunkRuns == 0) {
      // Stretch commit: the longest stretch of whole chunks [c, e) that
      // fits, e at most the next endpoint chunk. Each of its runs would pass
      // the per-run commit below, and what that commit adds up are integer
      // sums in any order. Runs are maximal, so each follows a run of
      // another kernel and pays its kernel's switch cost (the instance's
      // first run sits in an endpoint chunk).
      const std::size_t c = r / kChunkRuns;
      const Histogram* h =
          kCounting ? counters_->histogram(kLatencyHistogram) : nullptr;
      std::size_t e = chunks->chunks[c].next_endpoint;
      if (e > c && !fits(c, e, h)) {
        std::size_t lo = c;  // [c, lo) fits, [c, hi) does not
        std::size_t hi = e;
        while (hi - lo > 1) {
          const std::size_t mid = lo + (hi - lo) / 2;
          (fits(c, mid, h) ? lo : hi) = mid;
        }
        e = lo;
      }
      if (e > c) {
        const RunCount* from = &chunks->counts[c * width];
        const RunCount* to = &chunks->counts[e * width];
        Cycles span =
            chunks->chunks[e].gaps_before - chunks->chunks[c].gaps_before;
        for (std::size_t j = 0; j < width; ++j) {
          const std::uint32_t n_runs = to[j].runs - from[j].runs;
          if (n_runs == 0) continue;
          const std::uint32_t n_execs = to[j].executions - from[j].executions;
          const KernelId k = chunks->kernels[j];
          const SteadyMemo& m = memo[raw(k)];
          const auto ki = static_cast<std::size_t>(m.kind);
          const Cycles switched = n_runs * m.switch_cost;
          const Cycles total = n_execs * m.latency + switched;
          executions[ki] += n_execs;
          cycles[ki] += total;
          switch_cycles += switched;
          saved += (n_execs - n_runs) * m.saved + n_runs * m.saved_switched;
          span += total;
          obs.note_stretch_kernel(k, n_execs, total);
          if (kCounting) {
            counters_->observe(kLatencyHistogram,
                               static_cast<double>(m.latency + m.switch_cost),
                               n_runs);
            counters_->observe(kLatencyHistogram,
                               static_cast<double>(m.latency),
                               n_execs - n_runs);
          }
        }
        cursor += span;
        last = chunks->chunks[e - 1].last_kernel;
        r = e * kChunkRuns;
        continue;
      }
    }
    const ExecRun& run = runs[r];
    const std::size_t kid = raw(run.kernel);
    if (kid >= num_memos || memo[kid].stamp != stamp) break;
    const SteadyMemo& m = memo[kid];
    const auto n = static_cast<Cycles>(run.count);
    // The run's first execution pays the context switch, if any.
    const bool switches = run.kernel != last;
    const Cycles switched = switches ? m.switch_cost : 0;
    const Cycles total = n * m.latency + switched;
    const Cycles last_exec_start = cursor + run.gap_total + total - m.latency;
    if (last_exec_start > m.until) break;
    const auto ki = static_cast<std::size_t>(m.kind);
    executions[ki] += run.count;
    cycles[ki] += total;
    switch_cycles += switched;
    saved += switches ? m.saved_switched + (n - 1) * m.saved : n * m.saved;
    if (kCounting) {
      // In execution order: the first execution pays the switch, if any.
      counters_->observe(kLatencyHistogram,
                         static_cast<double>(m.latency + switched));
      counters_->observe(kLatencyHistogram, static_cast<double>(m.latency),
                         run.count - 1);
    }
    const Cycles first_exec_start = cursor + run.first_gap;
    cursor += run.gap_total + total;
    obs.note_run(run, first_exec_start, cursor);
    last = run.kernel;
    ++r;
  }
  for (std::size_t k = 0; k < kNumImplKinds; ++k) {
    stats_.executions[k] += executions[k];
    stats_.cycles[k] += cycles[k];
    impl_executions[k] += executions[k];
    impl_cycles[k] += cycles[k];
    if (kCounting && executions[k] != 0) {
      counters_->add(kExecCounterNames[k], executions[k]);
    }
  }
  stats_.context_switch_cycles += switch_cycles;
  stats_.saved_vs_risc += saved;
  last_executed_ = last;
  return r;
}

void Ecu::note_execution(KernelState& st, KernelId k, ImplKind kind,
                         Cycles latency, Cycles now) {
  if (trace_ != nullptr &&
      st.traced_impl != static_cast<std::uint8_t>(kind)) {
    // One decision event per implementation *change*, not per execution —
    // the trace stays bounded while the counters below keep exact totals.
    st.traced_impl = static_cast<std::uint8_t>(kind);
    trace_->record({TraceEventKind::kEcuDecision, kTrackEcu, now, 0, raw(k),
                    static_cast<std::uint32_t>(kind),
                    static_cast<double>(latency), 0.0});
  }
  if (counters_ != nullptr) {
    counters_->add(kExecCounterNames[static_cast<std::size_t>(kind)]);
    counters_->observe(kLatencyHistogram, static_cast<double>(latency));
  }
}

template <typename Io, typename Self>
void Ecu::walk(Io& io, Self& self) {
  auto& stats = self.stats_;
  for (auto& e : stats.executions) io.u64(e);
  for (auto& c : stats.cycles) io.u64(c);
  io.u64(stats.saved_vs_risc);
  io.u64(stats.context_switch_cycles);
  io.id(self.last_executed_);
  io.seq(self.state_, 1u << 20, "ECU kernel state table",
         [](auto& io, auto& st) {
           io.boolean(st.built);
           io.u64(st.mono_ready);
           io.u8(st.traced_impl);
         });
}

void Ecu::save_state(SnapshotWriter& w) const { walk(w, *this); }

void Ecu::load_state(SnapshotReader& r) {
  walk(r, *this);
  for (KernelState& st : state_) {
    st.next = kNeverCycles;  // needs-rebuild marker (see state_for)
  }
  memo_.clear();
}

void Ecu::reset() {
  for (KernelState& st : state_) {
    st.timeline.clear();  // keeps capacity for the next block's rebuild
    KernelState fresh;
    fresh.timeline = std::move(st.timeline);
    st = std::move(fresh);
  }
  memo_.clear();
  stats_ = EcuStats{};
  last_executed_ = kInvalidKernel;
}

}  // namespace mrts
