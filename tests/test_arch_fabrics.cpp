// Unit tests for the FG (PRC) and CG (context) fabric placement models.

#include <gtest/gtest.h>

#include "arch/cg_fabric.h"
#include "arch/fg_fabric.h"

namespace mrts {
namespace {

TEST(FgFabric, StartsEmpty) {
  FgFabric fg(4);
  EXPECT_EQ(fg.num_prcs(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_TRUE(fg.prc(i).empty());
    EXPECT_FALSE(fg.prc(i).usable_at(1'000'000));
  }
}

TEST(FgFabric, PlaceAndUsability) {
  FgFabric fg(2);
  fg.place(0, DataPathId{7}, 100);
  EXPECT_FALSE(fg.prc(0).usable_at(99));
  EXPECT_TRUE(fg.prc(0).usable_at(100));
  EXPECT_EQ(fg.prc(0).occupant, DataPathId{7});
}

TEST(FgFabric, EvictClears) {
  FgFabric fg(1);
  fg.place(0, DataPathId{1}, 0);
  fg.evict(0);
  EXPECT_TRUE(fg.prc(0).empty());
}

TEST(FgFabric, VictimPrefersEmptyThenOldest) {
  FgFabric fg(3);
  fg.place(0, DataPathId{1}, 100);
  fg.place(2, DataPathId{2}, 50);
  std::vector<bool> claimed(3, false);
  auto victim = fg.find_victim(claimed);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);  // the empty one
  fg.place(1, DataPathId{3}, 200);
  victim = fg.find_victim(claimed);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);  // oldest ready time
  claimed[2] = true;
  victim = fg.find_victim(claimed);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST(FgFabric, OutOfRangeThrows) {
  FgFabric fg(1);
  EXPECT_THROW(fg.prc(1), std::out_of_range);
  EXPECT_THROW(fg.place(1, DataPathId{0}, 0), std::out_of_range);
  EXPECT_THROW(fg.evict(1), std::out_of_range);
}

TEST(CgFabric, ParamsMatchPaper) {
  CgFabric cg;
  EXPECT_EQ(cg.params().instruction_bits, 80u);
  EXPECT_EQ(cg.params().context_memory_instructions, 32u);
  EXPECT_EQ(cg.params().context_switch_cycles, 2u);
  EXPECT_EQ(cg.params().alu_op_cycles, 1u);
  EXPECT_EQ(cg.params().mul_cycles, 2u);
  EXPECT_EQ(cg.params().div_cycles, 10u);
  EXPECT_EQ(cg.params().register_files, 2u);
  EXPECT_EQ(cg.params().registers_per_file, 32u);
  EXPECT_EQ(cg.params().inter_fabric_hop_cycles, 2u);
}

TEST(CgFabric, LoadIntoEmptySlots) {
  CgFabric cg;
  const unsigned s0 = cg.load(DataPathId{1}, 10);
  const unsigned s1 = cg.load(DataPathId{2}, 20);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(cg.resident_count(), 2u);
  EXPECT_TRUE(cg.holds(DataPathId{1}, 10));
  EXPECT_FALSE(cg.holds(DataPathId{1}, 9));
}

TEST(CgFabric, ReloadingSameDataPathReusesSlot) {
  CgFabric cg;
  const unsigned s0 = cg.load(DataPathId{1}, 100);
  const unsigned s1 = cg.load(DataPathId{1}, 50);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(cg.resident_count(), 1u);
  // Ready time keeps the earlier value.
  EXPECT_TRUE(cg.holds(DataPathId{1}, 50));
}

TEST(CgFabric, EvictsOldestWhenFull) {
  CgFabricParams params;
  params.max_resident_contexts = 2;
  CgFabric cg(params);
  cg.load(DataPathId{1}, 100);
  cg.load(DataPathId{2}, 200);
  cg.load(DataPathId{3}, 300);  // evicts dp1 (oldest ready)
  EXPECT_EQ(cg.resident_count(), 2u);
  EXPECT_FALSE(cg.slot_of(DataPathId{1}).has_value());
  EXPECT_TRUE(cg.slot_of(DataPathId{2}).has_value());
  EXPECT_TRUE(cg.slot_of(DataPathId{3}).has_value());
}

TEST(CgFabric, ActivationCostsTwoCyclesOnceThenFree) {
  CgFabric cg;
  const unsigned s0 = cg.load(DataPathId{1}, 0);
  const unsigned s1 = cg.load(DataPathId{2}, 0);
  EXPECT_EQ(cg.activate(s0), 2u);
  EXPECT_EQ(cg.activate(s0), 0u);  // already active
  EXPECT_EQ(cg.activate(s1), 2u);
  EXPECT_EQ(cg.activate(s0), 2u);
  ASSERT_TRUE(cg.active_slot().has_value());
  EXPECT_EQ(*cg.active_slot(), s0);
}

TEST(CgFabric, ActivateEmptySlotThrows) {
  CgFabric cg;
  EXPECT_THROW(cg.activate(0), std::invalid_argument);
  EXPECT_THROW(cg.activate(99), std::out_of_range);
}

TEST(CgFabric, ClearRemovesEverything) {
  CgFabric cg;
  cg.load(DataPathId{1}, 0);
  cg.clear();
  EXPECT_EQ(cg.resident_count(), 0u);
  EXPECT_FALSE(cg.active_slot().has_value());
}

TEST(CgFabric, ZeroContextCapacityRejected) {
  CgFabricParams params;
  params.max_resident_contexts = 0;
  EXPECT_THROW(CgFabric fabric(params), std::invalid_argument);
}

}  // namespace
}  // namespace mrts
