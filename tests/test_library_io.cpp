// Tests for the ISE-library text format: round-trip fidelity, diagnostics,
// validation on load, and a fuzz of the parser.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

#include "isa/ise_builder.h"
#include "isa/library_io.h"
#include "util/rng.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

void expect_equivalent(const IseLibrary& a, const IseLibrary& b) {
  ASSERT_EQ(a.data_paths().size(), b.data_paths().size());
  for (std::size_t i = 0; i < a.data_paths().size(); ++i) {
    const auto& da = a.data_paths()[DataPathId{static_cast<std::uint32_t>(i)}];
    const auto& db = b.data_paths()[DataPathId{static_cast<std::uint32_t>(i)}];
    EXPECT_EQ(da.name, db.name);
    EXPECT_EQ(da.grain, db.grain);
    EXPECT_EQ(da.units, db.units);
    EXPECT_EQ(da.reconfig_cycles(), db.reconfig_cycles());
  }
  ASSERT_EQ(a.num_kernels(), b.num_kernels());
  for (const auto& ka : a.kernels()) {
    const KernelId kb = b.find_kernel(ka.name);
    ASSERT_NE(kb, kInvalidKernel) << ka.name;
    EXPECT_EQ(b.kernel(kb).sw_latency, ka.sw_latency);
    EXPECT_EQ(b.kernel(kb).ises.size(), ka.ises.size());
    EXPECT_EQ(b.kernel(kb).has_mono_cg(), ka.has_mono_cg());
  }
  ASSERT_EQ(a.num_ises(), b.num_ises());
  for (const auto& ia : a.ises()) {
    const IseId ib_id = b.find_ise(ia.name);
    ASSERT_NE(ib_id, kInvalidIse) << ia.name;
    const IseVariant& ib = b.ise(ib_id);
    EXPECT_EQ(ib.latency_after, ia.latency_after) << ia.name;
    EXPECT_EQ(ib.data_paths.size(), ia.data_paths.size()) << ia.name;
    EXPECT_EQ(ib.is_mono_cg, ia.is_mono_cg) << ia.name;
    EXPECT_EQ(ib.fg_units, ia.fg_units) << ia.name;
    EXPECT_EQ(ib.cg_units, ia.cg_units) << ia.name;
  }
}

TEST(LibraryIo, RoundTripsTheFullH264Library) {
  const H264Application app = build_h264_application({});
  const std::string text = serialize_library(app.library);
  const IseLibrary parsed = parse_library(text);
  expect_equivalent(app.library, parsed);
  // Serialization is a fixed point.
  EXPECT_EQ(serialize_library(parsed), text);
}

TEST(LibraryIo, ParsesHandWrittenLibrary) {
  const IseLibrary lib = parse_library(R"(
# a tiny library
datapath cond_fg FG units=1 bitstream=83047
datapath filt_cg CG units=1 ctx=30
kernel DBF sw=1000
ise DBF.MG kernel=DBF dps=filt_cg,cond_fg lat=1000,560,170
ise DBF.mono kernel=DBF mono dps=filt_cg lat=1000,520
)");
  EXPECT_EQ(lib.num_kernels(), 1u);
  EXPECT_EQ(lib.num_ises(), 2u);
  const IseVariant& mg = lib.ise(lib.find_ise("DBF.MG"));
  EXPECT_TRUE(mg.is_multi_grained());
  EXPECT_EQ(mg.full_latency(), 170u);
  EXPECT_TRUE(lib.kernel(lib.find_kernel("DBF")).has_mono_cg());
}

TEST(LibraryIo, DiagnosticsCarryLineNumbers) {
  try {
    parse_library("kernel K sw=100\nbogus directive\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(LibraryIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_library("datapath x XX\n"), std::invalid_argument);
  EXPECT_THROW(parse_library("kernel K\n"), std::invalid_argument);
  EXPECT_THROW(parse_library("ise I kernel=K dps=a lat=1,2\n"),
               std::invalid_argument);  // unknown kernel
  EXPECT_THROW(parse_library("kernel K sw=10\n"
                             "ise I kernel=K dps=missing lat=10,5\n"),
               std::invalid_argument);  // unknown data path
  EXPECT_THROW(parse_library("datapath d FG\nkernel K sw=10\n"
                             "ise I kernel=K dps=d lat=10,20\n"),
               std::invalid_argument);  // increasing latency (validation)
  EXPECT_THROW(parse_library("datapath d FG nonsense=1\n"),
               std::invalid_argument);
}

TEST(LibraryIo, SaveAndLoadFile) {
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 500;
  spec.fg_data_path_names = {"k_fg"};
  spec.cg_data_path_names = {"k_cg"};
  build_kernel_ises(lib, spec);

  const std::string path = ::testing::TempDir() + "/mrts_lib_test.txt";
  save_library(lib, path);
  const IseLibrary loaded = load_library(path);
  expect_equivalent(lib, loaded);
  std::remove(path.c_str());
}

TEST(LibraryIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_library("/nonexistent/dir/lib.txt"), std::runtime_error);
}

// Fuzz of the parser over the serialized H.264 library: whatever the damage,
// parse_library either returns a library or throws std::invalid_argument
// whose message names a line of its input — never another exception, a
// crash, or a number silently narrowed or misread.

std::string h264_library_text() {
  return serialize_library(build_h264_application({}).library);
}

/// Lines std::getline reads from \p text.
std::size_t lines_in(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  return lines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// Parses \p text; returns the error (empty when it parses) after checking
/// it has the "library_io, line N: " form with N a line of \p text.
std::string parse_error_of(const std::string& text) {
  try {
    parse_library(text);
    return {};
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::string prefix = "library_io, line ";
    EXPECT_EQ(what.compare(0, prefix.size(), prefix), 0) << what;
    std::size_t at = prefix.size();
    std::size_t line = 0;
    while (at < what.size() &&
           std::isdigit(static_cast<unsigned char>(what[at]))) {
      line = line * 10 + static_cast<std::size_t>(what[at++] - '0');
    }
    EXPECT_EQ(what.compare(at, 2, ": "), 0) << what;
    EXPECT_GE(line, 1u) << what;
    EXPECT_LE(line, lines_in(text)) << what;
    return what;
  }
}

TEST(LibraryIoFuzz, EveryBytePrefixParsesOrNamesALine) {
  const std::string text = h264_library_text();
  ASSERT_GT(text.size(), 1000u);
  std::size_t parsed = 0;
  for (std::size_t n = 0; n <= text.size(); ++n) {
    if (parse_error_of(text.substr(0, n)).empty()) ++parsed;
  }
  // Every prefix that ends on a line break is a valid library; so are those
  // that cut a number or a list short (they still make sense).
  EXPECT_GT(parsed, lines_in(text));
  EXPECT_EQ(parse_error_of(text), "");
}

TEST(LibraryIoFuzz, SingleByteCorruptionFailsCleanlyOrParses) {
  const std::string text = h264_library_text();
  Rng rng(20261019);
  std::size_t failed = 0;
  for (int round = 0; round < 300; ++round) {
    std::string copy = text;
    const std::size_t pos = rng.next_below(copy.size());
    copy[pos] = static_cast<char>(copy[pos] ^ (1 + rng.next_below(255)));
    if (!parse_error_of(copy).empty()) ++failed;
  }
  // Most corruptions break a keyword, a name reference or a number.
  EXPECT_GT(failed, 150u);
}

TEST(LibraryIoFuzz, OutOfRangeSignedOrSuffixedNumbersAreRejected) {
  const std::string text = h264_library_text();
  // The first occurrence of each numeric field; lat= is a list, whose first
  // element is replaced.
  const struct {
    const char* key;
    const char* wider;  ///< one past the field's widest value
  } fields[] = {
      {" units=", "4294967296"},
      {" bitstream=", "18446744073709551616"},
      {" ctx=", "4294967296"},
      {" sw=", "18446744073709551616"},
      {" lat=", "18446744073709551616"},
  };
  for (const auto& field : fields) {
    const std::size_t at = text.find(field.key);
    ASSERT_NE(at, std::string::npos) << field.key;
    const std::size_t begin = at + std::string(field.key).size();
    const std::size_t end = text.find_first_of(" ,\n", begin);
    const std::string line =
        std::to_string(lines_in(text.substr(0, begin)));
    const std::string value = text.substr(begin, end - begin);
    const auto with = [&](const std::string& replacement) {
      return text.substr(0, begin) + replacement + text.substr(end);
    };
    EXPECT_EQ(parse_error_of(with(field.wider)),
              "library_io, line " + line + ": number '" + field.wider +
                  "' out of range")
        << field.key;
    for (const std::string& bad :
         {"-" + value, "+" + value, value + "abc", "0x" + value,
          std::string("1e3")}) {
      EXPECT_EQ(parse_error_of(with(bad)),
                "library_io, line " + line + ": bad number '" + bad + "'")
          << field.key;
    }
  }
}

TEST(LibraryIoFuzz, NarrowedOrMisreadValuesAreRejected) {
  const std::string tail = "kernel K sw=100\nise I kernel=K dps=d lat=100,50\n";
  // A parser that reads a 64-bit number up to its first non-digit and casts
  // it to the field would load units=4294967297 as 1, units=-1 as
  // 4294967295, ctx=4294967328 as 32 (past the context-memory check),
  // 12abc as 12 and +5 as 5.
  for (const char* attrs :
       {"FG units=4294967297", "FG units=-1", "CG ctx=4294967328",
        "FG bitstream=12abc", "FG bitstream=+5"}) {
    EXPECT_NE(parse_error_of(std::string("datapath d ") + attrs + "\n" + tail),
              "")
        << attrs;
  }
  // A bitstream of 2^64 - 1 bytes fits its field but not the cycle count of
  // its load (about 1.07e20 cycles), which DataPathTable::add rejects.
  EXPECT_EQ(parse_error_of("datapath d FG bitstream=18446744073709551615\n" +
                           tail),
            "library_io, line 1: DataPathTable::add: reconfiguration time "
            "out of range for d");
  // The widest values that do fit still load.
  const IseLibrary lib = parse_library(
      "datapath d FG units=4294967295 bitstream=1000\n" + tail);
  EXPECT_EQ(lib.data_paths()[DataPathId{0}].units, 4294967295u);
}

TEST(LibraryIo, IseResourceDemandMustFitUnsigned) {
  // 4294967295 + 2 PRCs wrapped to a demand of 1 in `unsigned`, and the
  // ISE loaded with fits(1, 0) == true; the parser now names its line.
  for (const char* grain : {"FG", "CG"}) {
    EXPECT_EQ(parse_error_of(std::string("datapath d ") + grain +
                             " units=4294967295\n"
                             "datapath e " + grain + " units=2\n"
                             "kernel K sw=100\n"
                             "ise I kernel=K dps=d,e lat=100,60,50\n"),
              "library_io, line 4: IseLibrary::add_ise: resource demand of "
              "I out of range")
        << grain;
  }
  // A demand of exactly UINT_MAX still loads.
  const IseLibrary lib = parse_library(
      "datapath d FG units=4294967294\n"
      "datapath e FG units=1\n"
      "kernel K sw=100\n"
      "ise I kernel=K dps=d,e lat=100,60,50\n");
  const IseVariant& ise = lib.ise(lib.find_ise("I"));
  EXPECT_EQ(ise.fg_units, 4294967295u);
  EXPECT_EQ(ise.cg_units, 0u);
  EXPECT_FALSE(ise.fits(4294967294u, 0));
  EXPECT_TRUE(ise.fits(4294967295u, 0));
}

}  // namespace
}  // namespace mrts
