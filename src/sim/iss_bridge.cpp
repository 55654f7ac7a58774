#include "sim/iss_bridge.h"

#include <stdexcept>

#include "isa/trigger.h"

namespace mrts {

IssApplication compile_trace_to_binary(const ApplicationTrace& trace,
                                       std::size_t blob_base) {
  IssApplication app;
  std::size_t cursor = blob_base;

  for (const auto& block : trace.blocks) {
    const std::vector<std::uint8_t> blob = encode_trigger(block.programmed);

    riscsim::Instr trig;
    trig.op = riscsim::Op::kTrig;
    trig.imm = static_cast<std::int32_t>(cursor);
    trig.target = static_cast<std::uint32_t>(blob.size());
    app.program.code.push_back(trig);

    app.data_segment.emplace_back(cursor, blob);
    cursor += blob.size();

    for (const auto& ev : block.events) {
      if (ev.gap_before > 0) {
        riscsim::Instr wait;
        wait.op = riscsim::Op::kWait;
        wait.imm = static_cast<std::int32_t>(ev.gap_before);
        app.program.code.push_back(wait);
      }
      riscsim::Instr kexec;
      kexec.op = riscsim::Op::kKexec;
      kexec.imm = static_cast<std::int32_t>(raw(ev.kernel));
      app.program.code.push_back(kexec);
    }
    if (block.tail_gap > 0) {
      riscsim::Instr tail;
      tail.op = riscsim::Op::kWait;
      tail.imm = static_cast<std::int32_t>(block.tail_gap);
      app.program.code.push_back(tail);
    }
  }
  riscsim::Instr halt;
  halt.op = riscsim::Op::kHalt;
  app.program.code.push_back(halt);
  app.program.lines.assign(app.program.code.size(), 0);
  app.memory_bytes = cursor;
  return app;
}

RtsCoprocessor::RtsCoprocessor(RuntimeSystem& rts) : rts_(&rts) {}

void RtsCoprocessor::flush(Cycles now) {
  if (!in_block_) return;
  BlockObservation obs;
  obs.functional_block = block_;
  for (const auto& [kid, a] : acc_) {
    ObservedKernelStats stats;
    stats.kernel = KernelId{kid};
    stats.executions = a.executions;
    stats.time_to_first = a.first_start;
    stats.time_between =
        a.executions > 1.0
            ? static_cast<Cycles>(static_cast<double>(a.gap_sum) /
                                  (a.executions - 1.0))
            : Cycles{0};
    obs.kernels.push_back(stats);
  }
  rts_->on_block_end(obs, now);
  acc_.clear();
  in_block_ = false;
}

Cycles RtsCoprocessor::trigger(const std::vector<std::uint8_t>& bytes,
                               Cycles now) {
  flush(now);
  const TriggerInstruction ti = decode_trigger(bytes);
  block_ = ti.functional_block;
  block_start_ = now;
  in_block_ = true;
  const SelectionOutcome outcome = rts_->on_trigger(ti, now);
  return outcome.blocking_overhead;
}

Cycles RtsCoprocessor::kernel(std::uint32_t kernel_id, Cycles now) {
  if (!in_block_) {
    throw std::runtime_error(
        "RtsCoprocessor: kexec before any trigger instruction");
  }
  const ExecOutcome out = rts_->execute_kernel(KernelId{kernel_id}, now);
  Acc& a = acc_[kernel_id];
  const Cycles rel_start = now - block_start_;
  if (!a.seen) {
    a.first_start = rel_start;
    a.seen = true;
  } else {
    a.gap_sum += rel_start - a.last_end;
  }
  a.executions += 1.0;
  a.last_end = rel_start + out.latency;
  return out.latency;
}

void RtsCoprocessor::finish(Cycles now) { flush(now); }

IssRunResult run_binary(const IssApplication& app, RuntimeSystem& rts) {
  rts.reset();
  ScratchpadParams mem;
  mem.size_bytes = std::max<std::size_t>(64 * 1024, app.memory_bytes + 1024);
  riscsim::Cpu cpu(mem);
  for (const auto& [addr, bytes] : app.data_segment) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      cpu.memory().write8(addr + i, bytes[i]);
    }
  }
  RtsCoprocessor bridge(rts);
  cpu.attach_coprocessor(&bridge);
  const riscsim::RunResult run =
      cpu.run(app.program, app.program.code.size() + 16);
  bridge.finish(run.cycles);

  IssRunResult out;
  out.cycles = run.cycles;
  out.instructions = run.instructions;
  out.halted = run.halted;
  return out;
}

}  // namespace mrts
