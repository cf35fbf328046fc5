// The flag spellings the experiment binaries accept through exp::Harness,
// checked on OptionSet: space- and equals-separated values, bare flags,
// defaults for absent flags, a flag followed by a flag, and a negative
// number bound as a value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/options.hpp"

namespace amm {
namespace {

// Harness-style flags with non-trivial defaults, bound on one OptionSet.
struct Flags {
  u32 trials = 42;
  bool csv = false;
  bool json = false;
  double lambda = 1.5;
  std::string mode = "fast";
  i64 offset = 0;
  OptionSet opts{"prog", "test"};

  Flags() {
    opts.add_u32("trials", &trials, "trials");
    opts.add_flag("csv", &csv, "csv");
    opts.add_flag("json", &json, "json");
    opts.add_double("lambda", &lambda, "rate");
    opts.add_string("mode", &mode, "mode");
    opts.add_i64("offset", &offset, "offset");
  }

  ParseStatus parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return opts.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(CliArgs, SpaceSeparatedValue) {
  Flags f;
  ASSERT_EQ(f.parse({"--trials", "500"}), ParseStatus::kOk);
  EXPECT_EQ(f.trials, 500u);
}

TEST(CliArgs, EqualsSeparatedValue) {
  Flags f;
  ASSERT_EQ(f.parse({"--lambda=0.25"}), ParseStatus::kOk);
  EXPECT_DOUBLE_EQ(f.lambda, 0.25);
}

TEST(CliArgs, BareFlag) {
  Flags f;
  ASSERT_EQ(f.parse({"--csv"}), ParseStatus::kOk);
  EXPECT_TRUE(f.csv);
  EXPECT_FALSE(f.json);
}

TEST(CliArgs, DefaultsWhenMissing) {
  Flags f;
  ASSERT_EQ(f.parse({}), ParseStatus::kOk);
  EXPECT_EQ(f.trials, 42u);
  EXPECT_DOUBLE_EQ(f.lambda, 1.5);
  EXPECT_EQ(f.mode, "fast");
}

TEST(CliArgs, StringValue) {
  Flags f;
  ASSERT_EQ(f.parse({"--mode", "slotted"}), ParseStatus::kOk);
  EXPECT_EQ(f.mode, "slotted");
}

TEST(CliArgs, FlagFollowedByFlag) {
  Flags f;
  ASSERT_EQ(f.parse({"--csv", "--trials", "7"}), ParseStatus::kOk);
  EXPECT_TRUE(f.csv);
  EXPECT_EQ(f.trials, 7u);
}

TEST(CliArgs, NegativeNumberAsValue) {
  // "-3" does not start with "--", so it binds as the value.
  Flags f;
  ASSERT_EQ(f.parse({"--offset", "-3"}), ParseStatus::kOk);
  EXPECT_EQ(f.offset, -3);
}

}  // namespace
}  // namespace amm
