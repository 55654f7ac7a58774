#include "util/number_text.h"

#include <charconv>
#include <cmath>
#include <ostream>

namespace mrts {

NumberText::NumberText(double v) {
  const std::to_chars_result res =
      v == std::floor(v) && std::fabs(v) < 9007199254740992.0 /* 2^53 */
          ? std::to_chars(text_, text_ + sizeof text_, v,
                          std::chars_format::fixed, 0)
          : std::to_chars(text_, text_ + sizeof text_, v,
                          std::chars_format::general, 10);
  size_ = static_cast<std::size_t>(res.ptr - text_);
}

std::ostream& operator<<(std::ostream& os, const NumberText& number) {
  return os << number.view();
}

}  // namespace mrts
