// Unit tests for the data-path model: reconfiguration-time derivation from
// the paper's architecture constants and the DataPathTable registry.

#include <gtest/gtest.h>

#include <cstdint>

#include "arch/data_path.h"
#include "util/types.h"

namespace mrts {
namespace {

TEST(DataPathDesc, FgReconfigTakesAboutOnePointTwoMs) {
  DataPathDesc dp;
  dp.grain = Grain::kFine;
  // Footnote 2: reconfiguring a single FG data path takes ~1.2 ms.
  EXPECT_NEAR(cycles_to_ms(dp.reconfig_cycles()), 1.2, 0.01);
}

TEST(DataPathDesc, CgReconfigTakesFractionOfMicrosecond) {
  DataPathDesc dp;
  dp.grain = Grain::kCoarse;
  dp.context_instructions = 30;
  // Footnote 2: ~0.00015 ms for the same data path on the CG fabric.
  // 30 instructions x 2 cycles = 60 cycles = 0.15 us at 400 MHz.
  EXPECT_EQ(dp.reconfig_cycles(), 60u);
  EXPECT_NEAR(cycles_to_ms(dp.reconfig_cycles()), 0.00015, 1e-5);
}

TEST(DataPathDesc, ReconfigScalesWithUnits) {
  DataPathDesc dp;
  dp.grain = Grain::kFine;
  dp.units = 2;
  DataPathDesc single = dp;
  single.units = 1;
  EXPECT_EQ(dp.reconfig_cycles(), 2 * single.reconfig_cycles());
}

TEST(DataPathDesc, FgReconfigProportionalToBitstream) {
  DataPathDesc small;
  small.grain = Grain::kFine;
  small.bitstream_bytes = 40'000;
  DataPathDesc big = small;
  big.bitstream_bytes = 80'000;
  EXPECT_NEAR(static_cast<double>(big.reconfig_cycles()),
              2.0 * static_cast<double>(small.reconfig_cycles()), 2.0);
}

TEST(DataPathTable, AddAssignsSequentialIds) {
  DataPathTable table;
  DataPathDesc a;
  a.name = "a";
  DataPathDesc b;
  b.name = "b";
  const DataPathId ia = table.add(a);
  const DataPathId ib = table.add(b);
  EXPECT_EQ(raw(ia), 0u);
  EXPECT_EQ(raw(ib), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table[ia].name, "a");
}

TEST(DataPathTable, FindByName) {
  DataPathTable table;
  DataPathDesc a;
  a.name = "absdiff";
  table.add(a);
  EXPECT_EQ(table.find("absdiff"), DataPathId{0});
  EXPECT_EQ(table.find("missing"), kInvalidDataPath);
}

TEST(DataPathTable, RejectsDuplicatesAndBadInput) {
  DataPathTable table;
  DataPathDesc a;
  a.name = "a";
  table.add(a);
  EXPECT_THROW(table.add(a), std::invalid_argument);

  DataPathDesc empty;
  EXPECT_THROW(table.add(empty), std::invalid_argument);

  DataPathDesc zero_units;
  zero_units.name = "z";
  zero_units.units = 0;
  EXPECT_THROW(table.add(zero_units), std::invalid_argument);

  DataPathDesc big_ctx;
  big_ctx.name = "ctx";
  big_ctx.grain = Grain::kCoarse;
  big_ctx.context_instructions = kCgContextMemoryInstructions + 1;
  EXPECT_THROW(table.add(big_ctx), std::invalid_argument);
}

TEST(DataPathTable, RejectsReconfigurationTimesOutOfRange) {
  DataPathTable table;
  // A bitstream of 2^64 - 1 bytes streams for about 1.07e20 cycles: past
  // what a Cycles can hold, so its conversion would be undefined.
  DataPathDesc huge;
  huge.name = "huge";
  huge.bitstream_bytes = ~std::uint64_t{0};
  EXPECT_THROW(table.add(huge), std::invalid_argument);

  // 3e18 bytes is about 1.73e19 cycles: one unit fits below kNeverCycles,
  // two do not.
  DataPathDesc large;
  large.name = "large";
  large.bitstream_bytes = 3'000'000'000'000'000'000;
  DataPathDesc doubled = large;
  doubled.name = "doubled";
  doubled.units = 2;
  EXPECT_THROW(table.add(doubled), std::invalid_argument);
  const DataPathId id = table.add(large);
  EXPECT_LT(table.reconfig_cycles(id), kNeverCycles);
  EXPECT_EQ(table.reconfig_cycles(id), large.reconfig_cycles());
  EXPECT_EQ(table.size(), 1u);
}

TEST(DataPathTable, OutOfRangeAccessThrows) {
  DataPathTable table;
  EXPECT_THROW(table[DataPathId{0}], std::out_of_range);
  EXPECT_FALSE(table.contains(DataPathId{0}));
}

TEST(Grain, ToString) {
  EXPECT_STREQ(to_string(Grain::kCoarse), "CG");
  EXPECT_STREQ(to_string(Grain::kFine), "FG");
}

}  // namespace
}  // namespace mrts
