#include <gtest/gtest.h>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, EmptyIsZero) {
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    EXPECT_EQ(median({}), 0.0);
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.p95, 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
    // Unsorted input; ranks over 0..4 -> p25 at rank 1, p90 at rank 3.6.
    const std::vector<double> v{50.0, 10.0, 40.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 90.0), 46.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Percentile, ClampsOutOfRangeP) {
    const std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 250.0), 3.0);
}

TEST(Percentile, MatchesPythonInclusiveQuantiles) {
    // statistics.quantiles(range(1, 11), n=20, method="inclusive")[18]
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i) v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 95.0), 9.55);
}

TEST(Summary, TailCountAboveP95) {
    std::vector<double> v;
    for (int i = 0; i < 400; ++i) v.push_back(static_cast<double>(i));
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 400u);
    EXPECT_DOUBLE_EQ(s.mean, 199.5);
    EXPECT_DOUBLE_EQ(s.max, 399.0);
    EXPECT_DOUBLE_EQ(s.p95, 379.05);
    EXPECT_EQ(s.aboveP95, 20u);
    EXPECT_EQ(countAbove(v, 398.0), 1u);
}

TEST(Jain, EqualSharesAreFairAndStarvationIsOneOverN) {
    EXPECT_DOUBLE_EQ(jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({0.7}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({0.5, 0.5, 0.5, 0.5}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
    EXPECT_DOUBLE_EQ(jainIndex({1.0, 0.5}), 2.25 / 2.5);
}

TEST(Intervals, UnionMergesOverlapsAndTouching) {
    EXPECT_DOUBLE_EQ(unionLength({}), 0.0);
    EXPECT_DOUBLE_EQ(unionLength({{0, 2}, {1, 3}, {5, 6}}), 4.0);
    EXPECT_DOUBLE_EQ(unionLength({{5, 6}, {0, 1}, {1, 2}}), 3.0);  // touching
    EXPECT_DOUBLE_EQ(unionLength({{0, 10}, {2, 3}, {4, 5}}), 10.0);  // nested
    EXPECT_DOUBLE_EQ(unionLength({{3, 1}, {2, 2}}), 0.0);  // inverted / empty
}

TEST(Intervals, SelfTimeClipsChildrenToParent) {
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {}), 10.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{1, 3}, {2, 4}}), 7.0);
    // Children from concurrent threads overlap: counted once.
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{1, 5}, {1, 5}, {4, 6}}), 5.0);
    // Children sticking out of the parent only cover their inside part.
    EXPECT_DOUBLE_EQ(selfTime({0, 10}, {{-5, 2}, {9, 20}, {30, 40}}), 7.0);
    EXPECT_DOUBLE_EQ(selfTime({5, 5}, {{0, 10}}), 0.0);
}

TEST(Fnv1a, OrderAndValueSensitive) {
    Fnv1a a, b, c;
    a.add(1);
    a.add(2);
    b.add(1);
    b.add(2);
    c.add(2);
    c.add(1);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    EXPECT_EQ(a.hex().size(), 16u);
    EXPECT_EQ(Fnv1a{}.hex(), "cbf29ce484222325");
}

}  // namespace
}  // namespace perfbench
