#pragma once
/// \file number_text.h
/// The one rule by which the machine-readable outputs print a double: the
/// run-report JSON (obs/report_io), the trace exporters (util/trace) and
/// CSV cells (util/csv). An integral value below 2^53 in magnitude prints
/// every digit, as printf's "%.0f" would (so large cycle counts survive a
/// round trip); anything else prints as "%.10g" (committed CSV bytes depend
/// on its rounding). Both forms come from std::to_chars, which writes the
/// same bytes as those printf formats without a format string or locale
/// (tests/test_util.cpp pins this against snprintf). Non-finite values print
/// as "inf" / "nan" like "%.10g"; JSON writers map them to 0 first.

#include <cstddef>
#include <iosfwd>
#include <string_view>

namespace mrts {

/// The text of one double, held inline (no heap allocation).
class NumberText {
 public:
  explicit NumberText(double v);

  std::string_view view() const { return {text_, size_}; }

 private:
  char text_[32];  ///< the longest form, "-1.234567891e-308", needs 17
  std::size_t size_;
};

std::ostream& operator<<(std::ostream& os, const NumberText& number);

}  // namespace mrts
