#include "util/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fcp {
namespace {

Flags Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(FlagsTest, ParsesKeyValue) {
  Flags f = Make({"--rate=5000", "--dataset=tr"});
  EXPECT_EQ(f.GetInt("rate", 0), 5000);
  EXPECT_EQ(f.GetString("dataset", ""), "tr");
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = Make({"--quick"});
  EXPECT_TRUE(f.Has("quick"));
  EXPECT_TRUE(f.GetBool("quick", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = Make({});
  EXPECT_FALSE(f.Has("missing"));
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(f.GetBool("missing", true));
}

TEST(FlagsTest, BoolFalseSpellings) {
  Flags f = Make({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(f.GetBool("a", true));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
}

TEST(FlagsTest, DoubleParsing) {
  Flags f = Make({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(f.GetDouble("ratio", 0.0), 0.75);
}

TEST(FlagsTest, IgnoresPositionalArgs) {
  Flags f = Make({"positional", "--x=1", "another"});
  EXPECT_EQ(f.GetInt("x", 0), 1);
  EXPECT_FALSE(f.Has("positional"));
}

TEST(FlagsTest, LastValueWins) {
  Flags f = Make({"--x=1", "--x=2"});
  EXPECT_EQ(f.GetInt("x", 0), 2);
}

TEST(FlagsTest, EmptyValue) {
  Flags f = Make({"--name="});
  EXPECT_TRUE(f.Has("name"));
  EXPECT_EQ(f.GetString("name", "zzz"), "");
}

TEST(FlagsTest, NumbersParseWholeValues) {
  Flags f = Make({"--n=-12", "--big=9000000000", "--x=-2.5e3", "--whole=7"});
  EXPECT_EQ(f.GetInt("n", 0), -12);
  EXPECT_EQ(f.GetInt("big", 0), 9000000000);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0.0), -2500.0);
  EXPECT_DOUBLE_EQ(f.GetDouble("whole", 0.0), 7.0);
}

// A numeric flag whose value is not a number (or, for GetInt, not a whole
// number) used to parse as its numeric prefix or 0; now it is fatal.
TEST(FlagsDeathTest, MalformedNumbersExitWithStatus2) {
  Flags f = Make({"--shards=four", "--events=10k", "--batch=", "--n=1.5",
                  "--huge=99999999999999999999", "--bare", "--ratio=0.5x",
                  "--theta=three"});
  for (const char* name :
       {"shards", "events", "batch", "n", "huge", "bare"}) {
    EXPECT_EXIT(f.GetInt(name, 0), ::testing::ExitedWithCode(2),
                std::string("bad value for --") + name)
        << name;
  }
  EXPECT_EXIT(f.GetDouble("ratio", 0.0), ::testing::ExitedWithCode(2),
              "bad value for --ratio");
  EXPECT_EXIT(f.GetDouble("theta", 0.0), ::testing::ExitedWithCode(2),
              "bad value for --theta");
}

// Every key passed must be one the tool names; a typo exits 2 with the key
// instead of running with the default.
TEST(FlagsDeathTest, UnknownKeysExitWithStatus2) {
  Flags known = Make({"--algo=dimine", "--theta=9", "--stats", "pos"});
  known.RejectUnknown({"algo", "theta", "stats", "tau"});  // returns

  Flags typo = Make({"--algo=dimine", "--thetaa=9"});
  EXPECT_EXIT(typo.RejectUnknown({"algo", "theta"}),
              ::testing::ExitedWithCode(2), "unknown flag --thetaa\n");
  Flags two = Make({"--zeta=1", "--miner=dimine", "--algo=coomine"});
  EXPECT_EXIT(two.RejectUnknown({"algo"}), ::testing::ExitedWithCode(2),
              "unknown flag --miner\nunknown flag --zeta\n");
}

}  // namespace
}  // namespace fcp
