// Tests for the declarative command lines (util/cli_spec.h). One table per
// binary parses argv, checks every value and renders --help, so these tests
// pin the parser contract every tool and bench shares — exit 1 for an
// unknown, repeated or valueless flag or a wrong positional count, exit 2
// for a malformed or out-of-range value — and that the help text carries
// each row's bounds and default.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli_spec.h"

namespace mrts {
namespace {

CliSpec make_spec() {
  CliSpec spec("toolbin", "does tool things");
  CliVerb& run = spec.add_verb(
      "run", "run an app",
      [](const CliArgs& args) { return static_cast<int>(args["n"].count); });
  run.positionals = {
      cli_text("app", "", "application"),
      cli_count("n", "", 1, 64, "4", "repetitions"),
  };
  run.flags = {
      cli_text("--trace", "<file>", "write a trace"),
      cli_switch("--fast", "skip the slow path"),
      cli_count("--retries", "<n>", 0, 1000, "3", "retry budget"),
      cli_count("--seed", "<n>", 0, kCliMaxCount, "42", "injector seed"),
      cli_probability("--rate", "<p>", "0", "fault rate"),
  };
  CliVerb& list =
      spec.add_verb("list", "list things", [](const CliArgs&) -> int {
        throw std::runtime_error("cannot list");
      });
  list.rest = "ITEM";
  list.rest_required = true;
  return spec;
}

CliArgs parse(const CliSpec& spec, const char* verb,
              const std::vector<std::string>& tokens) {
  return CliSpec::parse(*spec.verb(verb), tokens);
}

TEST(CliSpec, VerbAndFlagLookup) {
  const CliSpec spec = make_spec();
  ASSERT_NE(spec.verb("run"), nullptr);
  ASSERT_NE(spec.verb("list"), nullptr);
  EXPECT_EQ(spec.verb("nope"), nullptr);
  // --trace takes the next token as its value, --fast takes none, and a
  // flag the verb has no row for is a lookup miss: a usage error.
  const CliArgs args = parse(spec, "run", {"app", "--trace", "--fast"});
  ASSERT_EQ(args.status, 0) << args.error;
  EXPECT_EQ(args["--trace"].text, "--fast");
  EXPECT_FALSE(args["--fast"].given);
  EXPECT_EQ(parse(spec, "run", {"app", "--fast"}).status, 0);
  EXPECT_EQ(parse(spec, "run", {"app", "--bogus"}).status, 1);
  EXPECT_EQ(parse(spec, "list", {"a", "--trace", "t"}).status, 1);
}

TEST(CliSpec, ParsesPositionalsFlagsAndFallbacks) {
  const CliSpec spec = make_spec();
  const CliArgs given =
      parse(spec, "run",
            {"app1", "--trace", "t.json", "7", "--fast", "--retries", "1000",
             "--rate", "0.25", "--seed", "18446744073709551615"});
  ASSERT_EQ(given.status, 0) << given.error;
  EXPECT_EQ(given.positionals, (std::vector<std::string>{"app1", "7"}));
  EXPECT_EQ(given["n"].count, 7u);
  EXPECT_EQ(given["--trace"].text, "t.json");
  EXPECT_TRUE(given["--fast"].given);
  EXPECT_EQ(given["--retries"].count, 1000u);
  EXPECT_DOUBLE_EQ(given["--rate"].probability, 0.25);
  EXPECT_EQ(given["--seed"].count, kCliMaxCount);

  // Absent rows read as their fallback, or empty / zero without one.
  const CliArgs absent = parse(spec, "run", {"app1"});
  ASSERT_EQ(absent.status, 0) << absent.error;
  EXPECT_EQ(absent["n"].count, 4u);
  EXPECT_FALSE(absent["n"].given);
  EXPECT_EQ(absent["--retries"].count, 3u);
  EXPECT_EQ(absent["--seed"].count, 42u);
  EXPECT_EQ(absent["--rate"].probability, 0.0);
  EXPECT_FALSE(absent["--trace"].given);
  EXPECT_EQ(absent["--trace"].text, "");
  EXPECT_FALSE(absent["--fast"].given);
  // A name without a row is a programming error, not a silent zero.
  EXPECT_THROW((void)absent["--no-such-row"].count, std::out_of_range);
}

TEST(CliSpec, UnknownRepeatedOrValuelessFlagsAreUsageErrors) {
  const CliSpec spec = make_spec();
  const std::vector<std::vector<std::string>> cases = {
      {"app", "--bogus"},                     // unknown flag
      {"app", "--seed=5"},                    // no --flag=value spelling
      {"app", "--trace"},                     // valueless flag
      {"app", "--fast", "--fast"},            // repeated switch
      {"app", "--seed", "1", "--seed", "2"},  // repeated valued flag
      {"app", "--trace", "a", "--trace", "b"},
      {},                                     // too few positionals
      {"app", "4", "extra"},                  // too many positionals
  };
  for (const auto& tokens : cases) {
    const CliArgs args = parse(spec, "run", tokens);
    EXPECT_EQ(args.status, 1) << testing::PrintToString(tokens);
    EXPECT_FALSE(args.error.empty());
  }
  EXPECT_EQ(parse(spec, "list", {}).status, 1);  // rest needs one token
  const CliArgs items = parse(spec, "list", {"a", "b"});
  EXPECT_EQ(items.status, 0);
  EXPECT_EQ(items.positionals.size(), 2u);
}

TEST(CliSpec, MalformedOrOutOfRangeValuesAreInputErrors) {
  const CliSpec spec = make_spec();
  for (const std::string bad :
       {"1.5x", "inf", "nan", "-1", "", "18446744073709551616", "+1", " 1"}) {
    for (const char* flag : {"--seed", "--retries", "--rate"}) {
      const CliArgs args = parse(spec, "run", {"app", flag, bad});
      EXPECT_EQ(args.status, 2) << flag << " '" << bad << "'";
    }
  }
  EXPECT_EQ(parse(spec, "run", {"app", "--retries", "1001"}).status, 2);
  EXPECT_EQ(parse(spec, "run", {"app", "--rate", "1.5"}).status, 2);
  // Numeric positionals follow the same rule.
  for (const std::string bad : {"abc", "2x", "0", "65", "99999999999", ""}) {
    EXPECT_EQ(parse(spec, "run", {"app", bad}).status, 2) << bad;
  }
  // One message format for every bad value.
  EXPECT_EQ(parse(spec, "run", {"app", "--retries", "-1"}).error,
            "invalid --retries '-1' (expected an integer in [0,1000])");
  EXPECT_EQ(parse(spec, "run", {"app", "2x"}).error,
            "invalid n '2x' (expected an integer in [1,64])");
  EXPECT_EQ(parse(spec, "run", {"app", "--rate", "nan"}).error,
            "invalid --rate 'nan' (expected a probability in [0,1])");
  EXPECT_EQ(parse(spec, "run", {"app", "--seed", "1.5x"}).error,
            "invalid --seed '1.5x' (expected an unsigned 64-bit integer)");
}

TEST(CliSpec, HelpAnywhereIsAHelpRequest) {
  const CliSpec spec = make_spec();
  EXPECT_TRUE(parse(spec, "run", {"--bogus", "--help"}).help);
  EXPECT_FALSE(parse(spec, "run", {"app"}).help);
}

TEST(CliSpec, HelpListsEveryVerbEveryFlagAndTheExitNote) {
  const CliSpec spec = make_spec();
  const std::string help = spec.help();
  // Anything in the table appears in the help text, and the parser accepts
  // exactly the table, so help cannot drift from what is accepted.
  for (const char* name : {"run", "list"}) {
    const CliVerb& verb = *spec.verb(name);
    EXPECT_NE(help.find(verb.name + ": " + verb.help), std::string::npos);
    for (const auto* rows : {&verb.positionals, &verb.flags}) {
      for (const CliArg& row : *rows) {
        EXPECT_NE(help.find(row.name), std::string::npos) << row.name;
        EXPECT_NE(help.find(row.help), std::string::npos) << row.name;
      }
    }
  }
  EXPECT_NE(help.find("toolbin - does tool things"), std::string::npos);
  EXPECT_NE(help.find("exit codes: 0 success, 1 usage error, 2 input error"),
            std::string::npos);
}

TEST(CliSpec, HelpRendersEveryRowWithItsBoundsAndDefault) {
  const CliSpec spec = make_spec();
  for (const std::string& help :
       {spec.help(), spec.verb_help(*spec.verb("run"))}) {
    for (const char* needle :
         {"<app>", "[n]", "repetitions (an integer in [1,64]; default 4)",
          "--trace <file>", "--fast",
          "--retries <n>", "retry budget (an integer in [0,1000]; default 3)",
          "injector seed (an unsigned 64-bit integer; default 42)",
          "--rate <p>", "fault rate (a probability in [0,1]; default 0)",
          "exit codes: 0 success, 1 usage error, 2 input error"}) {
      EXPECT_NE(help.find(needle), std::string::npos) << needle;
    }
  }
}

TEST(CliSpec, UsageLineMentionsFlagsOnlyWhenTheVerbHasAny) {
  const CliSpec spec = make_spec();
  const std::string with_flags = spec.verb_help(*spec.verb("run"));
  EXPECT_NE(with_flags.find("toolbin run <app> [n] [flags]"),
            std::string::npos);
  const std::string without = spec.verb_help(*spec.verb("list"));
  EXPECT_NE(without.find("toolbin list <ITEM> ..."), std::string::npos);
  EXPECT_EQ(without.find("[flags]"), std::string::npos);
  EXPECT_EQ(without.find("--"), std::string::npos);
}

TEST(CliSpec, VerblessBinaryRendersABareUsageLine) {
  CliSpec spec("served", "serves");
  CliVerb& main_verb = spec.add_verb("", "");
  main_verb.flags = {cli_text("--socket", "<path>", "socket path")};
  const std::string help = spec.help();
  EXPECT_NE(help.find("served [flags]"), std::string::npos);
  EXPECT_NE(help.find("--socket <path>"), std::string::npos);
}

TEST(CliSpec, RunDispatchesToTheVerbHandlerUnderTheExitContract) {
  const CliSpec spec = make_spec();
  auto run = [&spec](std::vector<std::string> tokens) {
    tokens.insert(tokens.begin(), "toolbin");
    std::vector<char*> argv;
    for (std::string& t : tokens) argv.push_back(t.data());
    argv.push_back(nullptr);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = spec.run(static_cast<int>(tokens.size()), argv.data());
    testing::internal::GetCapturedStdout();
    testing::internal::GetCapturedStderr();
    return rc;
  };
  EXPECT_EQ(run({"run", "app", "9"}), 9);  // the handler's own status
  EXPECT_EQ(run({"run", "app"}), 4);
  EXPECT_EQ(run({"--help"}), 0);
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_EQ(run({"run", "--help"}), 0);
  EXPECT_EQ(run({}), 1);                   // missing verb
  EXPECT_EQ(run({"nope"}), 1);             // unknown verb
  EXPECT_EQ(run({"run", "app", "--x"}), 1);
  EXPECT_EQ(run({"run", "app", "x"}), 2);
  EXPECT_EQ(run({"list", "a"}), 2);        // a throwing handler
}

TEST(CliSpec, ParseCountTakesDigitsOnlyWithinBounds) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_count("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_count("10", 0, 10, &v));
  EXPECT_EQ(v, 10u);
  for (const char* bad : {"11", "", "-0", "+1", " 1", "1 ", "0x1", "1e3"}) {
    EXPECT_FALSE(parse_count(bad, 0, 10, &v)) << bad;
  }
  EXPECT_FALSE(parse_count("0", 1, 10, &v));
  EXPECT_TRUE(parse_count("18446744073709551615", 0, kCliMaxCount, &v));
  EXPECT_FALSE(parse_count("18446744073709551616", 0, kCliMaxCount, &v));
}

}  // namespace
}  // namespace mrts
