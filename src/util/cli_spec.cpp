#include "util/cli_spec.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace mrts {

namespace {

constexpr const char* kExitNote =
    "exit codes: 0 success, 1 usage error, 2 input error";

/// "an integer in [lo,hi]" / "a probability in [0,1]"; "" for text.
std::string expected(const CliArg& row) {
  if (row.kind == CliKind::kProbability) return "a probability in [0,1]";
  if (row.kind != CliKind::kCount) return "";
  const std::string lo = std::to_string(row.lo);
  const std::string hi = std::to_string(row.hi);
  if (row.hi != kCliMaxCount) return "an integer in [" + lo + "," + hi + "]";
  return row.lo == 0 ? "an unsigned 64-bit integer" : "an integer >= " + lo;
}

/// Checks \p text against \p row into \p v; on failure returns the error in
/// the one format of the contract, else "".
std::string check(const CliArg& row, const std::string& text, CliValue* v) {
  v->text = text;
  bool ok = true;
  if (row.kind == CliKind::kCount) {
    ok = parse_count(text, row.lo, row.hi, &v->count);
  } else if (row.kind == CliKind::kProbability) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v->probability);
    // NaN fails both comparisons; inf fails the upper one.
    ok = !text.empty() && ec == std::errc{} && ptr == end &&
         v->probability >= 0.0 && v->probability <= 1.0;
  }
  if (ok) return "";
  return "invalid " + row.name + " '" + text + "' (expected " +
         expected(row) + ")";
}

/// A positional renders as <name> (required) or [name] (optional).
std::string positional_head(const CliArg& row) {
  return row.fallback.empty() ? "<" + row.name + ">" : "[" + row.name + "]";
}

/// The one row-table loop behind help() and verb_help(): bounds and
/// defaults come from the row itself.
void render_rows(std::ostringstream& os, const CliVerb& verb) {
  std::vector<std::pair<std::string, const CliArg*>> rows;
  for (const CliArg& p : verb.positionals) {
    rows.emplace_back(positional_head(p), &p);
  }
  for (const CliArg& f : verb.flags) {
    rows.emplace_back(
        f.placeholder.empty() ? f.name : f.name + " " + f.placeholder, &f);
  }
  std::size_t width = 0;
  for (const auto& [head, row] : rows) width = std::max(width, head.size());
  for (const auto& [head, row] : rows) {
    std::string note = expected(*row);
    if (!row->fallback.empty()) {
      note += (note.empty() ? "default " : "; default ") + row->fallback;
    }
    os << "  " << head << std::string(width - head.size() + 2, ' ')
       << row->help << (note.empty() ? "" : " (" + note + ")") << '\n';
  }
}

}  // namespace

CliArg cli_text(std::string name, std::string placeholder, std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          CliKind::kText, 0, 0, ""};
}

CliArg cli_switch(std::string name, std::string help) {
  return {std::move(name), "", std::move(help), CliKind::kSwitch, 0, 0, ""};
}

CliArg cli_count(std::string name, std::string placeholder, std::uint64_t lo,
                 std::uint64_t hi, std::string fallback, std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          CliKind::kCount, lo, hi, std::move(fallback)};
}

CliArg cli_probability(std::string name, std::string placeholder,
                       std::string fallback, std::string help) {
  return {std::move(name), std::move(placeholder), std::move(help),
          CliKind::kProbability, 0, 0, std::move(fallback)};
}

bool parse_count(std::string_view text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t* out) {
  // from_chars on an unsigned type takes no sign and no whitespace, and
  // reports overflow instead of wrapping.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

const CliValue& CliArgs::operator[](std::string_view name) const {
  for (const CliValue& v : values) {
    if (v.name == name) return v;
  }
  throw std::out_of_range("no command-line row named '" + std::string(name) +
                          "'");
}

CliSpec::CliSpec(std::string binary, std::string summary)
    : binary_(std::move(binary)), summary_(std::move(summary)) {}

CliVerb& CliSpec::add_verb(std::string name, std::string help,
                           CliHandler handler) {
  CliVerb& verb = verbs_.emplace_back();
  verb.name = std::move(name);
  verb.help = std::move(help);
  verb.handler = handler;
  return verb;
}

const CliVerb* CliSpec::verb(std::string_view name) const {
  for (const CliVerb& v : verbs_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

CliArgs CliSpec::parse(const CliVerb& verb,
                       const std::vector<std::string>& tokens) {
  CliArgs args;
  args.help =
      std::find(tokens.begin(), tokens.end(), "--help") != tokens.end();
  auto fail = [&args](int status, std::string error) {
    args.status = status;
    args.error = std::move(error);
    return args;
  };
  // Every row starts at its fallback, so an absent row reads as its default.
  for (const auto* rows : {&verb.positionals, &verb.flags}) {
    for (const CliArg& row : *rows) {
      CliValue& value = args.values.emplace_back();
      value.name = row.name;
      if (row.fallback.empty()) continue;
      const std::string error = check(row, row.fallback, &value);
      if (!error.empty()) return fail(2, error);
    }
  }
  if (args.help) return args;
  const std::size_t declared = verb.positionals.size();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() < 2 || token[0] != '-') {
      args.positionals.push_back(token);
      continue;
    }
    std::size_t r = 0;
    while (r < verb.flags.size() && verb.flags[r].name != token) ++r;
    if (r == verb.flags.size()) return fail(1, "unknown flag '" + token + "'");
    CliValue& v = args.values[declared + r];
    if (v.given) return fail(1, "repeated flag " + token);
    v.given = true;
    if (verb.flags[r].kind == CliKind::kSwitch) continue;
    if (i + 1 == tokens.size()) return fail(1, "missing value for " + token);
    const std::string error = check(verb.flags[r], tokens[++i], &v);
    if (!error.empty()) return fail(2, error);
  }
  const std::size_t given = args.positionals.size();
  const auto required = static_cast<std::size_t>(std::count_if(
      verb.positionals.begin(), verb.positionals.end(),
      [](const CliArg& p) { return p.fallback.empty(); }));
  if (given < required || (verb.rest_required && given <= declared)) {
    return fail(1, "too few arguments");
  }
  if (verb.rest.empty() && given > declared) {
    return fail(1, "unexpected argument '" + args.positionals[declared] + "'");
  }
  for (std::size_t p = 0; p < std::min(declared, given); ++p) {
    args.values[p].given = true;
    const std::string error =
        check(verb.positionals[p], args.positionals[p], &args.values[p]);
    if (!error.empty()) return fail(2, error);
  }
  return args;
}

int CliSpec::report(const CliArgs& args) const {
  std::fprintf(stderr, "error: %s\n", args.error.c_str());
  return args.status == 1 ? usage() : args.status;
}

int CliSpec::usage() const {
  std::fputs(help().c_str(), stderr);
  return 1;
}

int CliSpec::run(int argc, char** argv) const {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  const bool verbless = verbs_.size() == 1 && verbs_[0].name.empty();
  const CliVerb* chosen = verbless ? &verbs_[0] : nullptr;
  if (!verbless) {
    if (!tokens.empty() && (tokens[0] == "--help" || tokens[0] == "help")) {
      std::fputs(help().c_str(), stdout);
      return 0;
    }
    chosen = tokens.empty() ? nullptr : verb(tokens[0]);
    if (chosen == nullptr) {
      if (!tokens.empty()) {
        std::fprintf(stderr, "error: unknown verb '%s'\n", tokens[0].c_str());
      }
      return usage();
    }
    tokens.erase(tokens.begin());
  }
  const CliArgs args = parse(*chosen, tokens);
  if (args.help) {
    std::fputs((verbless ? help() : verb_help(*chosen)).c_str(), stdout);
    return 0;
  }
  if (args.status != 0) return report(args);
  try {
    return chosen->handler(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

std::string CliSpec::usage_line(const CliVerb& verb) const {
  std::string line = "  " + binary_;
  if (!verb.name.empty()) line += " " + verb.name;
  for (const CliArg& p : verb.positionals) {
    line += ' ';
    line += positional_head(p);
  }
  if (!verb.rest.empty()) {
    line += verb.rest_required ? " <" : " [";
    line += verb.rest + (verb.rest_required ? "> ..." : " ...]");
  }
  if (!verb.flags.empty()) line += " [flags]";
  return line;
}

std::string CliSpec::verb_help(const CliVerb& verb) const {
  std::ostringstream os;
  os << "usage:\n" << usage_line(verb) << "\n  " << verb.help << '\n';
  render_rows(os, verb);
  os << kExitNote << '\n';
  return os.str();
}

std::string CliSpec::help() const {
  std::ostringstream os;
  os << binary_ << " - " << summary_ << "\n\nusage:\n";
  for (const CliVerb& v : verbs_) os << usage_line(v) << '\n';
  for (const CliVerb& v : verbs_) {
    os << '\n';
    if (!v.name.empty()) os << v.name << ": " << v.help << '\n';
    render_rows(os, v);
  }
  os << '\n' << kExitNote << '\n';
  return os.str();
}

}  // namespace mrts
