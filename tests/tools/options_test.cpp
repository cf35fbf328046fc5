// support/options.hpp — the one options API every binary parses with —
// plus the node vocabulary tools/cli.hpp declares on it.
//
// The properties it guarantees: one declaration per option, `--name value`
// and `--name=value` both accepted, typed range checking, enum-vocabulary
// validation, positional vocabularies, and unknown flags *rejected*, not
// silently ignored.
#include "support/options.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tools/cli.hpp"

namespace amm {
namespace {

ParseStatus parse(OptionSet& opts, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return opts.parse(static_cast<int>(args.size()), args.data());
}

TEST(Options, TypedValuesParseInBothSpellings) {
  bool flag = false;
  std::string name = "default";
  std::string mode = "off";
  u16 port = 9500;
  u32 count = 1;
  u64 big = 0;
  i64 value = 0;
  double rate = 0.0;
  OptionSet opts("prog", "test");
  opts.add_flag("flag", &flag, "a flag");
  opts.add_string("name", &name, "a string");
  opts.add_enum("mode", &mode, {"off", "retain", "summary"}, "an enum");
  opts.add_u16("port", &port, "a u16");
  opts.add_u32("count", &count, "a u32");
  opts.add_u64("big", &big, "a u64");
  opts.add_i64("value", &value, "an i64");
  opts.add_double("rate", &rate, "a double");

  EXPECT_EQ(parse(opts, {"--flag", "--name", "alice", "--mode=summary", "--port=65535",
                         "--count", "0x10", "--big=4294967296", "--value", "-42",
                         "--rate=0.25"}),
            ParseStatus::kOk);
  EXPECT_TRUE(flag);
  EXPECT_EQ(name, "alice");
  EXPECT_EQ(mode, "summary");
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(count, 16u);  // 0x prefix accepted
  EXPECT_EQ(big, 4294967296ull);
  EXPECT_EQ(value, -42);
  EXPECT_DOUBLE_EQ(rate, 0.25);
}

TEST(Options, UnknownFlagRejected) {
  u32 n = 5;
  OptionSet opts("prog", "test");
  opts.add_u32("n", &n, "cluster size");
  EXPECT_EQ(parse(opts, {"--n", "3", "--bogus", "7"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("unknown option --bogus"), std::string::npos) << opts.error();
}

TEST(Options, MissingValueRejected) {
  std::string dir;
  OptionSet opts("prog", "test");
  opts.add_string("store-dir", &dir, "store directory");
  EXPECT_EQ(parse(opts, {"--store-dir"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("needs a value"), std::string::npos) << opts.error();
}

TEST(Options, EnumVocabularyEnforced) {
  std::string fsync = "interval";
  OptionSet opts("prog", "test");
  opts.add_enum("fsync", &fsync, {"never", "interval", "always"}, "fsync policy");
  EXPECT_EQ(parse(opts, {"--fsync", "sometimes"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("one of: never|interval|always"), std::string::npos)
      << opts.error();
  EXPECT_EQ(fsync, "interval");  // failed parse leaves the default alone
}

TEST(Options, NumericRangeAndFormatEnforced) {
  u16 port = 0;
  u32 n = 0;
  OptionSet opts("prog", "test");
  opts.add_u16("port", &port, "a u16");
  opts.add_u32("n", &n, "a u32");
  EXPECT_EQ(parse(opts, {"--port", "65536"}), ParseStatus::kError);  // u16 overflow
  EXPECT_EQ(parse(opts, {"--port", "abc"}), ParseStatus::kError);
  EXPECT_EQ(parse(opts, {"--port", "12x"}), ParseStatus::kError);  // trailing junk
  EXPECT_EQ(parse(opts, {"--n", "-1"}), ParseStatus::kError);      // unsigned, no wrap
  EXPECT_EQ(parse(opts, {"--n", ""}), ParseStatus::kError);
}

TEST(Options, FlagTakesNoValue) {
  bool flag = false;
  OptionSet opts("prog", "test");
  opts.add_flag("flag", &flag, "a flag");
  EXPECT_EQ(parse(opts, {"--flag=1"}), ParseStatus::kError);
}

TEST(Options, HelpShortCircuitsAndListsEveryOption) {
  u32 n = 5;
  std::string mode = "off";
  OptionSet opts("prog", "summary line");
  opts.add_u32("n", &n, "cluster size");
  opts.add_enum("mode", &mode, {"off", "on"}, "a mode");
  EXPECT_EQ(parse(opts, {"-h"}), ParseStatus::kHelp);
  EXPECT_EQ(parse(opts, {"--n", "3", "--help"}), ParseStatus::kHelp);

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  opts.print_help(out);
  std::rewind(out);
  char buf[2048] = {};
  const usize got = std::fread(buf, 1, sizeof buf - 1, out);
  std::fclose(out);
  const std::string help(buf, got);
  EXPECT_NE(help.find("--n <v>"), std::string::npos) << help;
  EXPECT_NE(help.find("[default: 5]"), std::string::npos) << help;  // captured default
  EXPECT_NE(help.find("one of: off|on"), std::string::npos) << help;
  EXPECT_NE(help.find("-h, --help"), std::string::npos) << help;
}

TEST(Options, PositionalVocabularyAndOrder) {
  std::string command;
  std::string dir;
  OptionSet opts("prog", "test");
  opts.add_positional("command", &command, {"dump", "verify", "truncate"}, "what to do");
  opts.add_string("dir", &dir, "store dir");
  EXPECT_EQ(parse(opts, {"verify", "--dir", "/tmp/x"}), ParseStatus::kOk);
  EXPECT_EQ(command, "verify");
  EXPECT_EQ(dir, "/tmp/x");

  EXPECT_EQ(parse(opts, {"explode"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("invalid command"), std::string::npos) << opts.error();
  EXPECT_EQ(parse(opts, {}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("missing command"), std::string::npos) << opts.error();
}

TEST(Options, UnexpectedPositionalRejected) {
  u32 n = 0;
  OptionSet opts("prog", "test");
  opts.add_u32("n", &n, "a u32");
  EXPECT_EQ(parse(opts, {"stray"}), ParseStatus::kError);
  EXPECT_NE(opts.error().find("unexpected argument 'stray'"), std::string::npos) << opts.error();
}

TEST(Options, NodeOptionsDeclareTheWholeVocabularyOnce) {
  tools::NodeConfig cfg;
  OptionSet opts("amm_node", "test");
  tools::add_node_options(opts, &cfg);
  EXPECT_EQ(parse(opts, {"--n", "7", "--id=3", "--backend", "epoll", "--compact", "summary",
                         "--store-dir", "/tmp/store0", "--fsync=always",
                         "--snapshot-interval", "256", "--segment-bytes", "1048576"}),
            ParseStatus::kOk);
  EXPECT_EQ(cfg.n, 7u);
  EXPECT_EQ(cfg.id, 3u);
  EXPECT_EQ(cfg.backend, "epoll");
  EXPECT_EQ(cfg.compact, "summary");
  EXPECT_EQ(cfg.store_dir, "/tmp/store0");
  EXPECT_EQ(cfg.fsync, "always");
  EXPECT_EQ(cfg.snapshot_interval, 256u);
  EXPECT_EQ(cfg.segment_bytes, 1048576u);
  // Untouched options keep their defaults.
  EXPECT_EQ(cfg.seed, 20200715u);
  EXPECT_EQ(cfg.base_port, 9500u);
  EXPECT_EQ(cfg.fsync_interval, 64u);

  // A misspelled flag is an error, never ignored.
  EXPECT_EQ(parse(opts, {"--storedir", "/tmp/x"}), ParseStatus::kError);
}

}  // namespace
}  // namespace amm
