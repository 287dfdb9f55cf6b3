// Tests of the benchmark's pure helpers: the tail rule, the open-loop
// schedule and mix script, served_from class accounting, the result line.
#include <gtest/gtest.h>

#include <cmath>

#include "core.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

namespace rpc = redist::rpc;

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(39, 99), 0);   // p75 leaves 9 beyond
  EXPECT_EQ(tail_percentile(40, 99), 75);  // p75 leaves 10
  EXPECT_EQ(tail_percentile(99, 99), 75);  // p90 leaves 9
  EXPECT_EQ(tail_percentile(100, 99), 90);
  EXPECT_EQ(tail_percentile(199, 99), 90);
  EXPECT_EQ(tail_percentile(200, 99), 95);
  EXPECT_EQ(tail_percentile(1000, 99), 99);
}

TEST(TailPercentile, CapWins) {
  EXPECT_EQ(tail_percentile(5000, 90), 90);
  EXPECT_EQ(tail_percentile(150, 90), 90);
  EXPECT_EQ(tail_percentile(60, 90), 75);
}

TEST(TailPercentile, SamplesBeyondFloors) {
  EXPECT_EQ(samples_beyond(45, 75), 11u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
}

TEST(Percentile, InterpolatesAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 75), 4);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(OpenLoop, EvenlySpacedAndDeterministic) {
  std::size_t calls = 0;
  const auto schedule = open_loop_schedule(200, 2, [&](std::size_t i) {
    ++calls;
    return i % 3;
  });
  ASSERT_EQ(schedule.size(), 400u);
  EXPECT_EQ(calls, 400u);
  EXPECT_DOUBLE_EQ(schedule[0].due_ms, 0);
  EXPECT_DOUBLE_EQ(schedule[1].due_ms, 5);
  EXPECT_DOUBLE_EQ(schedule[399].due_ms, 1995);
  EXPECT_EQ(schedule[4].input, 1u);
}

TEST(OpenLoop, MixScriptIsAFunctionOfTheSeed) {
  const MixShares shares;
  const MixScript a = make_mix_script(7, 200, 1, shares);
  const MixScript b = make_mix_script(7, 200, 1, shares);
  const MixScript c = make_mix_script(8, 200, 1, shares);
  ASSERT_EQ(a.arrivals.size(), 200u);
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].input, b.arrivals[i].input);
    EXPECT_DOUBLE_EQ(a.arrivals[i].due_ms, b.arrivals[i].due_ms);
  }
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    ASSERT_EQ(a.inputs[i].entries.size(), b.inputs[i].entries.size());
    for (std::size_t e = 0; e < a.inputs[i].entries.size(); ++e) {
      EXPECT_EQ(a.inputs[i].entries[e].bytes, b.inputs[i].entries[e].bytes);
    }
  }
  bool differs = a.inputs.size() != c.inputs.size();
  for (std::size_t i = 0; !differs && i < a.arrivals.size(); ++i) {
    differs = a.arrivals[i].input != c.arrivals[i].input;
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoop, MixIntentsFollowTheShares) {
  const MixShares shares;
  std::size_t repeat = 0, near = 0, fresh = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    switch (mix_intent(3, i, shares)) {
      case Intent::kRepeat: ++repeat; break;
      case Intent::kNearMiss: ++near; break;
      case Intent::kNew: ++fresh; break;
    }
  }
  const double fresh_share = 1 - shares.repeat - shares.near_miss;
  EXPECT_NEAR(static_cast<double>(repeat) / 20000, shares.repeat, 0.02);
  EXPECT_NEAR(static_cast<double>(near) / 20000, shares.near_miss, 0.02);
  EXPECT_NEAR(static_cast<double>(fresh) / 20000, fresh_share, 0.02);
}

TEST(OpenLoop, RepeatsResendHotPatternsAndOthersAreNew) {
  const MixScript s = make_mix_script(11, 200, 1, MixShares{});
  std::vector<bool> used(s.inputs.size(), false);
  for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
    const std::size_t input = s.arrivals[i].input;
    if (mix_intent(11, i, MixShares{}) == Intent::kRepeat) {
      EXPECT_LT(input, s.hot);
    } else {
      EXPECT_GE(input, s.hot);
      EXPECT_FALSE(used[input]) << "one-off input sent twice";
      used[input] = true;
    }
  }
}

Outcome outcome(bool ok, bool rate_limited, rpc::ServedFrom from,
                double latency_ms) {
  Outcome o;
  o.ok = ok;
  o.rate_limited = rate_limited;
  o.served_from = from;
  o.latency_ms = latency_ms;
  return o;
}

TEST(ClassAccounting, SplitsByServedFromAndNeverTimesFailures) {
  const std::vector<Outcome> outcomes = {
      outcome(true, false, rpc::ServedFrom::kCacheHit, 0.1),
      outcome(true, false, rpc::ServedFrom::kCold, 5.0),
      outcome(true, false, rpc::ServedFrom::kWarmNearMiss, 4.0),
      outcome(false, true, rpc::ServedFrom::kCacheHit, 0.01),
      outcome(false, false, rpc::ServedFrom::kCold, 9.0),
      outcome(true, false, rpc::ServedFrom::kCacheHit, 0.2)};
  const ClassSplit split = split_by_class(outcomes);
  EXPECT_EQ(split.hits, 2u);
  EXPECT_EQ(split.cold, 1u);
  EXPECT_EQ(split.near_miss, 1u);
  EXPECT_EQ(split.failed, 2u);
  EXPECT_EQ(split.rate_limited, 1u);
  EXPECT_EQ(split.hit_ms, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(split.solve_ms, (std::vector<double>{5.0, 4.0}));
}

TEST(ResultLine, ExactKeysAndAllDigits) {
  const std::string json =
      result_json(true, 12, 0, {{"latency_ms_p50", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms_p50\": {\"value\": "
            "0.33333333333333331, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
