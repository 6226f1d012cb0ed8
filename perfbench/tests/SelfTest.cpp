//===- perfbench/tests/SelfTest.cpp - the benchmark's own tests -----------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Stats.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

namespace {

Span span(uint64_t Id, uint64_t Parent, int64_t StartMs, int64_t EndMs) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Name = "s" + std::to_string(Id);
  S.StartNs = StartMs * 1000000;
  S.EndNs = EndMs * 1000000;
  return S;
}

} // namespace

TEST(SelfTime, SubtractsDisjointChildren) {
  // verify [0,100) with smt children [10,30) and [50,60): self = 70.
  std::vector<Span> Spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                             span(3, 1, 50, 60)};
  auto Kids = childrenByParent(Spans);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[0], Kids[1]), 70.0);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[1], Kids[2]), 20.0);
}

TEST(SelfTime, CountsOverlappingChildrenOnce) {
  // Parallel workers: [10,40) and [20,50) cover [10,50) together.
  std::vector<Span> Spans = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                             span(3, 1, 20, 50), span(4, 1, 45, 48)};
  auto Kids = childrenByParent(Spans);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[0], Kids[1]), 60.0);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  // A child that outlives its parent only covers the parent's interval.
  std::vector<Span> Spans = {span(1, 0, 0, 100), span(2, 1, 90, 130),
                             span(3, 1, -20, 5)};
  auto Kids = childrenByParent(Spans);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[0], Kids[1]), 85.0);
}

TEST(SelfTime, GrandchildrenDoNotCountTwice) {
  // Only direct children are subtracted; a grandchild inside its parent
  // is already covered.
  std::vector<Span> Spans = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                             span(3, 2, 20, 30)};
  auto Kids = childrenByParent(Spans);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[0], Kids[1]), 50.0);
  EXPECT_DOUBLE_EQ(selfTimeMs(Spans[1], Kids[2]), 40.0);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  std::vector<double> V;
  for (int I = 1; I <= 999; ++I)
    V.push_back(I);
  // Rank 990 of 999 leaves only 9 samples beyond the p99.
  EXPECT_FALSE(tailPercentile(V, 99).has_value());
  V.push_back(1000);
  // Rank 990 of 1000 leaves exactly 10.
  ASSERT_TRUE(tailPercentile(V, 99).has_value());
  EXPECT_DOUBLE_EQ(*tailPercentile(V, 99), 990.0);
  EXPECT_EQ(samplesNeededFor(99), 1000u);
  EXPECT_EQ(samplesNeededFor(90), 100u);
  EXPECT_EQ(samplesNeededFor(50), 20u);
}

TEST(Percentile, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(nearestRank({5, 1, 4, 2, 3}, 50), 3.0);
  EXPECT_DOUBLE_EQ(nearestRank({5, 1, 4, 2, 3}, 99), 5.0);
  EXPECT_DOUBLE_EQ(nearestRank({5, 1, 4, 2, 3}, 20), 1.0);
}

TEST(Inputs, PermutationIsAPermutation) {
  std::vector<size_t> P = permutation(324, 7);
  std::set<size_t> S(P.begin(), P.end());
  EXPECT_EQ(S.size(), 324u);
  EXPECT_EQ(*S.rbegin(), 323u);
}

TEST(Inputs, SameSeedSameBytes) {
  EXPECT_EQ(renderOpt(intCorpusInput(42)), renderOpt(intCorpusInput(42)));
  EXPECT_EQ(alivedEpisodePlan(42, 3, 324, 1500, 81),
            alivedEpisodePlan(42, 3, 324, 1500, 81));
}

TEST(Inputs, DifferentSeedsDifferentBytes) {
  EXPECT_NE(renderOpt(intCorpusInput(1)), renderOpt(intCorpusInput(2)));
  EXPECT_NE(alivedEpisodePlan(1, 0, 324, 1500, 81),
            alivedEpisodePlan(2, 0, 324, 1500, 81));
  // Episodes of one run draw different requests too.
  EXPECT_NE(alivedEpisodePlan(1, 0, 324, 1500, 81),
            alivedEpisodePlan(1, 1, 324, 1500, 81));
}

TEST(Inputs, IntCorpusKeepsEveryTransformAndAnswer) {
  std::vector<Item> Base = corpusItems(), Perm = intCorpusInput(5);
  ASSERT_EQ(Base.size(), Perm.size());
  size_t Correct = 0;
  std::set<std::string> Names;
  for (const Item &It : Perm) {
    Correct += It.ExpectCorrect;
    Names.insert(It.Name);
  }
  EXPECT_EQ(Correct, 288u);
  EXPECT_EQ(Perm.size() - Correct, 36u);
  EXPECT_EQ(Names.size(), Perm.size());
}

TEST(Inputs, EpisodePlanOpensWithItsFirstSightings) {
  std::vector<uint32_t> Plan = alivedEpisodePlan(9, 0, 324, 1500, 81);
  ASSERT_EQ(Plan.size(), 1500u);
  std::set<uint32_t> Fresh(Plan.begin(), Plan.begin() + 81);
  EXPECT_EQ(Fresh.size(), 81u);
  for (uint32_t K : Plan) {
    ASSERT_LT(K, 324u);
    EXPECT_TRUE(Fresh.count(K)) << "a repeat of a transform never sent";
  }
}

TEST(Inputs, OneCycleOfEpisodesCoversTheCorpusOnce) {
  std::vector<size_t> Count(324);
  for (unsigned E = 0; E != 4; ++E) {
    std::vector<uint32_t> Plan = alivedEpisodePlan(9, E, 324, 1500, 81);
    for (size_t I = 0; I != 81; ++I)
      ++Count[Plan[I]];
  }
  for (size_t C : Count)
    EXPECT_EQ(C, 1u);
}
