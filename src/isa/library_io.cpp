#include "isa/library_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace mrts {
namespace {

[[noreturn]] void fail(unsigned line, const std::string& message) {
  throw std::invalid_argument("library_io, line " + std::to_string(line) +
                              ": " + message);
}

std::string strip(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\r");
  std::size_t end = text.find_last_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

/// Splits a line into whitespace-separated tokens.
std::vector<std::string> tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Parses "key=value"; returns empty optional-ish pair on mismatch.
bool key_value(const std::string& tok, const std::string& key,
               std::string* value) {
  if (tok.size() <= key.size() + 1 || tok.compare(0, key.size(), key) != 0 ||
      tok[key.size()] != '=') {
    return false;
  }
  *value = tok.substr(key.size() + 1);
  return true;
}

/// Parses a decimal number into its field's type: digits only (no sign, no
/// space, nothing after them) and no value wider than the field.
template <typename T>
T parse_number(const std::string& text, unsigned line) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    fail(line, "number '" + text + "' out of range");
  }
  if (ec != std::errc{} || ptr != end) fail(line, "bad number '" + text + "'");
  return value;
}

}  // namespace

std::string serialize_library(const IseLibrary& lib) {
  std::ostringstream os;
  os << "# mRTS ISE library (" << lib.data_paths().size() << " data paths, "
     << lib.num_kernels() << " kernels, " << lib.num_ises() << " ISEs)\n";
  for (const auto& dp : lib.data_paths()) {
    os << "datapath " << dp.name << ' ' << to_string(dp.grain)
       << " units=" << dp.units;
    if (dp.grain == Grain::kFine) {
      os << " bitstream=" << dp.bitstream_bytes;
    } else {
      os << " ctx=" << dp.context_instructions;
    }
    os << '\n';
  }
  for (const auto& kernel : lib.kernels()) {
    os << "kernel " << kernel.name << " sw=" << kernel.sw_latency << '\n';
  }
  for (const auto& ise : lib.ises()) {
    os << "ise " << ise.name << " kernel="
       << lib.kernel(ise.kernel).name;
    if (ise.is_mono_cg) os << " mono";
    os << " dps=";
    for (std::size_t i = 0; i < ise.data_paths.size(); ++i) {
      if (i) os << ',';
      os << lib.data_paths()[ise.data_paths[i]].name;
    }
    os << " lat=";
    for (std::size_t i = 0; i < ise.latency_after.size(); ++i) {
      if (i) os << ',';
      os << ise.latency_after[i];
    }
    os << '\n';
  }
  return os.str();
}

IseLibrary parse_library(const std::string& text) {
  IseLibrary lib;
  std::istringstream stream(text);
  std::string raw_line;
  unsigned line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const std::size_t comment = raw_line.find('#');
    const std::string line =
        strip(comment == std::string::npos ? raw_line
                                           : raw_line.substr(0, comment));
    if (line.empty()) continue;
    const std::vector<std::string> toks = tokens(line);

    if (toks[0] == "datapath") {
      if (toks.size() < 3) fail(line_no, "datapath needs a name and a grain");
      DataPathDesc dp;
      dp.name = toks[1];
      if (toks[2] == "FG") {
        dp.grain = Grain::kFine;
      } else if (toks[2] == "CG") {
        dp.grain = Grain::kCoarse;
      } else {
        fail(line_no, "grain must be FG or CG, got '" + toks[2] + "'");
      }
      for (std::size_t i = 3; i < toks.size(); ++i) {
        std::string value;
        if (key_value(toks[i], "units", &value)) {
          dp.units = parse_number<unsigned>(value, line_no);
        } else if (key_value(toks[i], "bitstream", &value)) {
          dp.bitstream_bytes = parse_number<std::uint64_t>(value, line_no);
        } else if (key_value(toks[i], "ctx", &value)) {
          dp.context_instructions = parse_number<unsigned>(value, line_no);
        } else {
          fail(line_no, "unknown datapath attribute '" + toks[i] + "'");
        }
      }
      try {
        lib.data_paths().add(dp);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (toks[0] == "kernel") {
      if (toks.size() != 3) fail(line_no, "kernel needs a name and sw=");
      std::string value;
      if (!key_value(toks[2], "sw", &value)) {
        fail(line_no, "kernel needs sw=<cycles>");
      }
      const Cycles sw_latency = parse_number<Cycles>(value, line_no);
      try {
        lib.add_kernel(toks[1], sw_latency);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (toks[0] == "ise") {
      if (toks.size() < 4) fail(line_no, "ise needs name/kernel/dps/lat");
      IseVariant ise;
      ise.name = toks[1];
      for (std::size_t i = 2; i < toks.size(); ++i) {
        std::string value;
        if (toks[i] == "mono") {
          ise.is_mono_cg = true;
        } else if (key_value(toks[i], "kernel", &value)) {
          ise.kernel = lib.find_kernel(value);
          if (ise.kernel == kInvalidKernel) {
            fail(line_no, "unknown kernel '" + value + "'");
          }
        } else if (key_value(toks[i], "dps", &value)) {
          for (const std::string& name : split(value, ',')) {
            const DataPathId dp = lib.data_paths().find(name);
            if (dp == kInvalidDataPath) {
              fail(line_no, "unknown data path '" + name + "'");
            }
            ise.data_paths.push_back(dp);
          }
        } else if (key_value(toks[i], "lat", &value)) {
          for (const std::string& lat : split(value, ',')) {
            ise.latency_after.push_back(parse_number<Cycles>(lat, line_no));
          }
        } else {
          fail(line_no, "unknown ise attribute '" + toks[i] + "'");
        }
      }
      try {
        lib.add_ise(std::move(ise));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else {
      fail(line_no, "unknown directive '" + toks[0] + "'");
    }
  }
  return lib;
}

void save_library(const IseLibrary& lib, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_library: cannot open " + path);
  out << serialize_library(lib);
  if (!out) throw std::runtime_error("save_library: write failed for " + path);
}

IseLibrary load_library(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_library: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_library(buffer.str());
}

}  // namespace mrts
