#pragma once
/// \file cli_spec.h
/// Declarative command lines for the tool binaries (mrts_cli, mrts_serve,
/// mrts_loadgen) and the figure benches. Each binary declares one CliSpec —
/// its verbs and, per verb, one row per positional and per flag stating the
/// value kind, bounds and default — and that table alone parses argv,
/// checks every value and renders `--help`. What the help lists, what the
/// parser accepts and what it rejects therefore cannot drift apart.
///
/// One contract for every binary (tests/test_cli_spec.cpp pins it):
///  * exit 1, usage error: an unknown verb or flag, a repeated flag, a flag
///    without its value, too few or too many positionals;
///  * exit 2, input error: a malformed or out-of-range value, numeric
///    positionals included, reported as
///    `error: invalid <what> '<value>' (expected ...)`.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mrts {

/// What a row's value must look like.
enum class CliKind {
  kText,         ///< any string
  kSwitch,       ///< a flag that takes no value
  kCount,        ///< decimal digits only, no sign, within [lo, hi]
  kProbability,  ///< a finite decimal number in [0, 1]
};

inline constexpr std::uint64_t kCliMaxCount =
    std::numeric_limits<std::uint64_t>::max();

/// One positional ("prcs") or flag ("--trace") row.
struct CliArg {
  std::string name;         ///< "--trace" for a flag, "prcs" for a positional
  std::string placeholder;  ///< a flag's value placeholder, e.g. "<file>"
  std::string help;         ///< one-line description
  CliKind kind = CliKind::kText;
  std::uint64_t lo = 0;  ///< kCount bounds
  std::uint64_t hi = 0;
  /// Value when the row is absent from the command line; "" = none. A
  /// positional with a fallback is optional, one without is required.
  std::string fallback;
};

CliArg cli_text(std::string name, std::string placeholder, std::string help);
CliArg cli_switch(std::string name, std::string help);
CliArg cli_count(std::string name, std::string placeholder, std::uint64_t lo,
                 std::uint64_t hi, std::string fallback, std::string help);
CliArg cli_probability(std::string name, std::string placeholder,
                       std::string fallback, std::string help);

/// The strict count grammar of kCount rows, shared with the value grammars
/// nested inside positionals (trigger and task specs): the whole token is
/// decimal digits and the value lies in [lo, hi].
bool parse_count(std::string_view text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t* out);

/// One row's checked value: as given, else its fallback, else empty / zero.
struct CliValue {
  std::string name;
  bool given = false;  ///< the row was on the command line
  std::string text;
  std::uint64_t count = 0;
  double probability = 0.0;
};

/// What CliSpec::parse found.
struct CliArgs {
  int status = 0;     ///< 0 parsed, 1 usage error, 2 invalid value
  std::string error;  ///< what failed when status != 0
  bool help = false;  ///< --help was among the tokens
  std::vector<std::string> positionals;  ///< every positional, in order
  std::vector<CliValue> values;          ///< one per row

  /// The value of the row named \p name; throws std::out_of_range when the
  /// verb has no such row.
  const CliValue& operator[](std::string_view name) const;
};

using CliHandler = int (*)(const CliArgs& args);

struct CliVerb {
  std::string name;  ///< "" for verbless binaries
  std::string help;  ///< one-line description
  /// Declared positionals, required ones first.
  std::vector<CliArg> positionals;
  /// Trailing repeated positional, e.g. "KERNEL=e[,tf,tb]"; "" = none.
  std::string rest;
  bool rest_required = false;  ///< at least one \p rest token
  std::vector<CliArg> flags;
  CliHandler handler = nullptr;  ///< what CliSpec::run dispatches to
};

class CliSpec {
 public:
  CliSpec(std::string binary, std::string summary);

  CliVerb& add_verb(std::string name, std::string help,
                    CliHandler handler = nullptr);

  /// Verb lookup by name; nullptr when unknown.
  const CliVerb* verb(std::string_view name) const;

  /// Parses the tokens after the verb against \p verb's rows. A token that
  /// starts with '-' (and is not just "-") is a flag, taking the next token
  /// as its value unless it is a switch; every other token is a positional.
  /// Stops at the first error.
  static CliArgs parse(const CliVerb& verb,
                       const std::vector<std::string>& tokens);
  /// Prints a failed parse to stderr — the error line, plus the full help
  /// for a usage error — and returns its exit status.
  int report(const CliArgs& args) const;
  /// Prints the full help to stderr and returns 1: for handlers whose
  /// arguments parse but do not fit together.
  int usage() const;
  /// A whole main(): `--help` / `help`, verb lookup, parse, then the verb's
  /// handler. An exception escaping the handler is an input error (exit 2).
  int run(int argc, char** argv) const;

  /// Full `--help` text: usage lines for every verb, then per-verb row
  /// tables, then the exit-code contract.
  std::string help() const;
  /// One verb's help: its usage line plus its row table.
  std::string verb_help(const CliVerb& verb) const;

 private:
  std::string usage_line(const CliVerb& verb) const;

  std::string binary_;
  std::string summary_;
  std::vector<CliVerb> verbs_;
};

}  // namespace mrts
