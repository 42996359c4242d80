// The sequence tracker every packet-numbered transport shares (NDP source
// and sink, pHost sink, DCQCN sink).
#include <gtest/gtest.h>

#include "net/endpoint.h"

namespace ndpsim {
namespace {

TEST(seq_tracker, frontier_holds_gaps_and_rejects_duplicates) {
  seq_tracker t;
  EXPECT_EQ(t.cumulative(), 0u);

  // In order: the frontier advances with every packet.
  EXPECT_TRUE(t.add(1));
  EXPECT_TRUE(t.add(2));
  EXPECT_EQ(t.cumulative(), 2u);
  EXPECT_EQ(t.arrived(), 2u);

  // Out of order: held beyond the frontier, which stays at the gap.
  EXPECT_TRUE(t.add(5));
  EXPECT_TRUE(t.add(4));
  EXPECT_EQ(t.cumulative(), 2u);
  EXPECT_EQ(t.arrived(), 4u);

  // Duplicates below and above the frontier are not new.
  EXPECT_FALSE(t.add(1));
  EXPECT_FALSE(t.add(2));
  EXPECT_FALSE(t.add(5));
  EXPECT_EQ(t.arrived(), 4u);

  // Filling the gap jumps the frontier over everything held beyond it.
  EXPECT_TRUE(t.add(3));
  EXPECT_EQ(t.cumulative(), 5u);
  EXPECT_EQ(t.arrived(), 5u);
  EXPECT_FALSE(t.add(4));

  // A later gap is held again.
  EXPECT_TRUE(t.add(7));
  EXPECT_EQ(t.cumulative(), 5u);
  EXPECT_TRUE(t.add(6));
  EXPECT_EQ(t.cumulative(), 7u);
}

}  // namespace
}  // namespace ndpsim
