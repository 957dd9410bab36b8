#include <gtest/gtest.h>

#include "join/heavy_hitters.h"
#include "mpc/cluster.h"
#include "join/stats.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

TEST(DistributedStatsTest, MatchesExactOracle) {
  const int p = 8;
  Rng rng(1);
  const Relation rel = GenerateZipf(rng, 5000, 2, 500, 1, 1.3);
  const DistRelation dist = DistRelation::Scatter(rel, p);
  const int64_t threshold = 5000 / p;

  Cluster cluster(p, 3);
  const auto distributed =
      DetectHeavyHittersDistributed(cluster, dist, 1, threshold);
  const auto exact = FindHeavyHitters(dist, 1, threshold);

  ASSERT_EQ(distributed.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(distributed[i].value, exact[i].value);
    EXPECT_EQ(distributed[i].count, exact[i].count);
  }
}

TEST(DistributedStatsTest, CostsTwoRounds) {
  const int p = 8;
  Rng rng(2);
  const Relation rel = GenerateZipf(rng, 4000, 2, 300, 1, 1.2);
  Cluster cluster(p, 3);
  DetectHeavyHittersDistributed(cluster, DistRelation::Scatter(rel, p), 1,
                                4000 / p);
  EXPECT_EQ(cluster.cost_report().num_rounds(), 2);
  // Round 1 moves at most one partial per (server, distinct value); round
  // 2 broadcasts at most ~p hitters per server. Both far below IN.
  EXPECT_LT(cluster.cost_report().MaxLoadTuples(), 4000 / p + p * p);
}

TEST(DistributedStatsTest, NoHittersMeansEmptyAndCheapRound2) {
  const int p = 4;
  Rng rng(3);
  const Relation rel = GenerateMatchingDegree(rng, 1000, 1);
  Cluster cluster(p, 3);
  const auto hitters = DetectHeavyHittersDistributed(
      cluster, DistRelation::Scatter(rel, p), 1, 1000 / p);
  EXPECT_TRUE(hitters.empty());
  EXPECT_EQ(cluster.cost_report().rounds()[1].TotalTuplesReceived(), 0);
}

TEST(DistributedStatsTest, DegreeTableMatchesLocalCount) {
  const int p = 8;
  Rng rng(4);
  const Relation rel = GenerateUniform(rng, 3000, 2, 40);
  Cluster cluster(p, 3);
  const Relation table =
      DistributedDegreeTable(cluster, DistRelation::Scatter(rel, p), 1);
  EXPECT_TRUE(MultisetEqual(table, DegreeCount(rel, 1)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 2);
}

TEST(DistributedStatsTest, SingleServer) {
  Rng rng(5);
  const Relation rel = GenerateConstantColumn(100, 1, 9);
  Cluster cluster(1, 3);
  const auto hitters = DetectHeavyHittersDistributed(
      cluster, DistRelation::Scatter(rel, 1), 1, 10);
  ASSERT_EQ(hitters.size(), 1u);
  EXPECT_EQ(hitters[0].value, 9u);
  EXPECT_EQ(hitters[0].count, 100);
}

}  // namespace
}  // namespace mpcqp
