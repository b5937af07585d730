#include "common/params.h"

#include <gtest/gtest.h>

namespace fcp {
namespace {

TEST(MiningParamsTest, DefaultsValidate) {
  MiningParams params;
  EXPECT_TRUE(params.Validate().ok()) << params.Validate();
}

TEST(MiningParamsTest, RejectsNonPositiveXi) {
  MiningParams params;
  params.xi = 0;
  EXPECT_FALSE(params.Validate().ok());
  params.xi = -5;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MiningParamsTest, RejectsNonPositiveTau) {
  MiningParams params;
  params.tau = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MiningParamsTest, RejectsTauSmallerThanXi) {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Seconds(30);
  EXPECT_FALSE(params.Validate().ok());
  params.tau = Seconds(60);  // equal is allowed
  EXPECT_TRUE(params.Validate().ok());
}

TEST(MiningParamsTest, RejectsZeroTheta) {
  MiningParams params;
  params.theta = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MiningParamsTest, RejectsInvertedSizeRange) {
  MiningParams params;
  params.min_pattern_size = 4;
  params.max_pattern_size = 3;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MiningParamsTest, UnboundedMaxSizeAllowed) {
  MiningParams params;
  params.max_pattern_size = 0;  // unbounded
  params.min_pattern_size = 7;
  EXPECT_TRUE(params.Validate().ok());
}

TEST(MiningParamsTest, RejectsZeroMinSize) {
  MiningParams params;
  params.min_pattern_size = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MiningParamsTest, ToStringMentionsEveryKnob) {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 5;
  const std::string s = params.ToString();
  EXPECT_NE(s.find("xi=60000ms"), std::string::npos) << s;
  EXPECT_NE(s.find("tau=1800000ms"), std::string::npos) << s;
  EXPECT_NE(s.find("theta=3"), std::string::npos) << s;
  EXPECT_NE(s.find("k=[2,5]"), std::string::npos) << s;
}

TEST(MiningParamsTest, ToStringUnbounded) {
  MiningParams params;
  params.max_pattern_size = 0;
  EXPECT_NE(params.ToString().find("inf"), std::string::npos);
}

TEST(MiningParamsTest, DurationHelpers) {
  EXPECT_EQ(Millis(1500), 1500);
  EXPECT_EQ(Seconds(2), 2000);
  EXPECT_EQ(Minutes(3), 180000);
}

}  // namespace
}  // namespace fcp
