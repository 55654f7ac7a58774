// Additional coverage: multiset data-path installs, blocking-overhead cycle
// conservation with a real RTS, CSV file mode and the disassemblers on the
// shipped kernel programs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "arch/fabric_manager.h"
#include "cgsim/cg_assembler.h"
#include "cgsim/cg_kernel_programs.h"
#include "isa/ise_builder.h"
#include "riscsim/assembler.h"
#include "riscsim/kernel_programs.h"
#include "rts/mrts.h"
#include "sim/fb_simulator.h"
#include "util/csv.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

TEST(FabricManagerMultiset, RepeatedDataPathNeedsTwoInstances) {
  DataPathTable table;
  DataPathDesc fg;
  fg.name = "fg";
  fg.grain = Grain::kFine;
  const DataPathId fg_id = table.add(fg);

  FabricManager fm(0, 2, &table);
  // An ISE using the same data path twice occupies two PRCs and serializes
  // two bitstreams.
  const auto placements =
      fm.install({{IseId{0}, KernelId{0}, {fg_id, fg_id}}}, 0);
  ASSERT_EQ(placements[0].instance_ready.size(), 2u);
  EXPECT_GT(placements[0].instance_ready[1], placements[0].instance_ready[0]);
  EXPECT_EQ(fm.usage().reserved_prcs, 2u);
  EXPECT_EQ(fm.available_instances(fg_id, kNeverCycles), 2u);
  // Only one instance is available until the second completes.
  EXPECT_EQ(fm.available_instances(fg_id, placements[0].instance_ready[0]),
            1u);
  EXPECT_EQ(fm.available_instances(fg_id, placements[0].instance_ready[1]),
            2u);

  // A single-PRC machine cannot host it.
  FabricManager small(0, 1, &table);
  EXPECT_THROW(small.install({{IseId{0}, KernelId{0}, {fg_id, fg_id}}}, 0),
               std::invalid_argument);
}

TEST(RunBlock, BlockingOverheadIsPartOfTheTimeline) {
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 400;
  spec.fg_data_path_names = {"k_fg"};
  spec.cg_data_path_names = {"k_cg"};
  const KernelId k = build_kernel_ises(lib, spec);

  Rng rng(3);
  FunctionalBlockInstance inst = make_block_instance(
      FunctionalBlockId{0}, 50, {{k, 4.0, 20, 0.0}}, 100, 100, rng);
  stamp_programmed_trigger(inst, lib);

  MRts rts(lib, 1, 1);
  const FbRunResult r = run_block(rts, inst, 0);
  EXPECT_GT(r.blocking_overhead, 0u);

  // Conservation: block time = overhead + gaps + execution latencies + tail.
  Cycles expected = r.blocking_overhead + inst.tail_gap;
  for (const auto& ev : inst.events) expected += ev.gap_before;
  for (std::size_t i = 0; i < kNumImplKinds; ++i) {
    expected += r.impl_cycles[i];
  }
  EXPECT_EQ(r.cycles, expected);
}

TEST(Csv, FileModeWritesToDisk) {
  const std::string path = ::testing::TempDir() + "/mrts_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a", "b"});
    csv.write_values(1, "x,y");
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(Disassemblers, RoundTripAllShippedKernelPrograms) {
  for (const auto& name : riscsim::kernel_program_names()) {
    const auto& p = riscsim::kernel_program(name);
    const auto back = riscsim::assemble(riscsim::disassemble(p));
    ASSERT_EQ(back.code.size(), p.code.size()) << name;
  }
  for (const auto& name : cgsim::cg_kernel_program_names()) {
    const auto& p = cgsim::cg_kernel_program(name);
    const auto back = cgsim::cg_assemble(name, cgsim::cg_disassemble(p));
    ASSERT_EQ(back.code.size(), p.code.size()) << name;
    for (std::size_t i = 0; i < p.code.size(); ++i) {
      EXPECT_EQ(back.code[i], p.code[i]) << name << " instr " << i;
    }
  }
}

}  // namespace
}  // namespace mrts
