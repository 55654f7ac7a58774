#include "riscsim/assembler.h"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace mrts::riscsim {

namespace {

[[noreturn]] void fail(unsigned line, const std::string& message) {
  throw std::invalid_argument("riscsim asm, line " + std::to_string(line) +
                              ": " + message);
}

std::string strip(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// Splits "r1, r2, r3" / "[r8+12], r7" into comma-separated operand tokens.
std::vector<std::string> split_operands(const std::string& text,
                                        unsigned line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      out.push_back(strip(current));
      current.clear();
    } else {
      current += c;
    }
  }
  const std::string last = strip(current);
  if (!last.empty()) out.push_back(last);
  for (const auto& tok : out) {
    if (tok.empty()) fail(line, "empty operand");
  }
  return out;
}

std::uint8_t parse_register(const std::string& tok, unsigned line) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) {
    fail(line, "expected register, got '" + tok + "'");
  }
  int value = 0;
  try {
    value = std::stoi(tok.substr(1));
  } catch (const std::exception&) {
    fail(line, "bad register '" + tok + "'");
  }
  if (value < 0 || value >= static_cast<int>(kNumRegisters)) {
    fail(line, "register out of range '" + tok + "'");
  }
  return static_cast<std::uint8_t>(value);
}

std::int32_t parse_imm(const std::string& tok, unsigned line) {
  try {
    return static_cast<std::int32_t>(std::stol(tok, nullptr, 0));
  } catch (const std::exception&) {
    fail(line, "bad immediate '" + tok + "'");
  }
}

/// Parses "[rN+imm]" or "[rN]" into (base register, offset).
std::pair<std::uint8_t, std::int32_t> parse_mem(const std::string& tok,
                                                unsigned line) {
  if (tok.size() < 4 || tok.front() != '[' || tok.back() != ']') {
    fail(line, "expected memory operand [rN+off], got '" + tok + "'");
  }
  const std::string inner = strip(tok.substr(1, tok.size() - 2));
  const std::size_t plus = inner.find_first_of("+-");
  if (plus == std::string::npos) {
    return {parse_register(inner, line), 0};
  }
  const std::string base = strip(inner.substr(0, plus));
  std::string off = strip(inner.substr(plus));
  if (off.size() > 1 && off[0] == '+') off = off.substr(1);
  return {parse_register(base, line), parse_imm(off, line)};
}

}  // namespace

Program assemble(const std::string& source) {
  struct Pending {
    std::size_t instr_index;
    std::string label;
    unsigned line;
  };

  Program program;
  std::unordered_map<std::string, std::uint32_t> labels;
  std::vector<Pending> pending;

  std::istringstream stream(source);
  std::string raw_line;
  unsigned line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    // Strip comments.
    const std::size_t comment = raw_line.find_first_of(";#");
    std::string text =
        strip(comment == std::string::npos ? raw_line
                                           : raw_line.substr(0, comment));
    if (text.empty()) continue;

    // Labels (possibly followed by an instruction on the same line).
    while (true) {
      const std::size_t colon = text.find(':');
      if (colon == std::string::npos) break;
      const std::string label = strip(text.substr(0, colon));
      if (label.empty() || label.find(' ') != std::string::npos) {
        fail(line_no, "bad label '" + label + "'");
      }
      if (labels.count(label)) fail(line_no, "duplicate label '" + label + "'");
      labels[label] = static_cast<std::uint32_t>(program.code.size());
      text = strip(text.substr(colon + 1));
      if (text.empty()) break;
    }
    if (text.empty()) continue;

    // Mnemonic + operands.
    const std::size_t space = text.find_first_of(" \t");
    const std::string mnem =
        space == std::string::npos ? text : text.substr(0, space);
    const std::string rest =
        space == std::string::npos ? "" : strip(text.substr(space));
    Op op;
    try {
      op = op_from_mnemonic(mnem);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
    const std::vector<std::string> ops = split_operands(rest, line_no);

    Instr instr;
    instr.op = op;
    auto expect = [&](std::size_t n) {
      if (ops.size() != n) {
        fail(line_no, "expected " + std::to_string(n) + " operands for '" +
                          mnem + "', got " + std::to_string(ops.size()));
      }
    };

    switch (op) {
      case Op::kNop:
      case Op::kHalt:
        expect(0);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kSll:
      case Op::kSrl:
      case Op::kSra:
      case Op::kMul:
      case Op::kDiv:
      case Op::kCmpLt:
      case Op::kCmpEq:
      case Op::kMin:
      case Op::kMax:
        expect(3);
        instr.rd = parse_register(ops[0], line_no);
        instr.rs1 = parse_register(ops[1], line_no);
        instr.rs2 = parse_register(ops[2], line_no);
        break;
      case Op::kAbs:
        expect(2);
        instr.rd = parse_register(ops[0], line_no);
        instr.rs1 = parse_register(ops[1], line_no);
        break;
      case Op::kAddi:
      case Op::kSubi:
      case Op::kAndi:
      case Op::kOri:
      case Op::kSlli:
      case Op::kSrli:
        expect(3);
        instr.rd = parse_register(ops[0], line_no);
        instr.rs1 = parse_register(ops[1], line_no);
        instr.imm = parse_imm(ops[2], line_no);
        break;
      case Op::kMovi:
        expect(2);
        instr.rd = parse_register(ops[0], line_no);
        instr.imm = parse_imm(ops[1], line_no);
        break;
      case Op::kLdw:
      case Op::kLdb: {
        expect(2);
        instr.rd = parse_register(ops[0], line_no);
        const auto [base, off] = parse_mem(ops[1], line_no);
        instr.rs1 = base;
        instr.imm = off;
        break;
      }
      case Op::kStw:
      case Op::kStb: {
        expect(2);
        const auto [base, off] = parse_mem(ops[0], line_no);
        instr.rs1 = base;
        instr.imm = off;
        instr.rs2 = parse_register(ops[1], line_no);
        break;
      }
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
        expect(3);
        instr.rs1 = parse_register(ops[0], line_no);
        instr.rs2 = parse_register(ops[1], line_no);
        pending.push_back({program.code.size(), ops[2], line_no});
        break;
      case Op::kJmp:
        expect(1);
        pending.push_back({program.code.size(), ops[0], line_no});
        break;
      case Op::kWait:
      case Op::kKexec:
        expect(1);
        instr.imm = parse_imm(ops[0], line_no);
        break;
      case Op::kTrig:
        expect(2);
        instr.imm = parse_imm(ops[0], line_no);
        instr.target =
            static_cast<std::uint32_t>(parse_imm(ops[1], line_no));
        break;
    }
    program.code.push_back(instr);
    program.lines.push_back(line_no);
  }

  for (const auto& p : pending) {
    const auto it = labels.find(p.label);
    if (it == labels.end()) fail(p.line, "unknown label '" + p.label + "'");
    program.code[p.instr_index].target = it->second;
  }
  return program;
}

std::string disassemble(const Program& program) {
  std::ostringstream os;
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instr& in = program.code[i];
    os << "L" << i << ": " << mnemonic(in.op);
    switch (in.op) {
      case Op::kNop:
      case Op::kHalt:
        break;
      case Op::kMovi:
        os << " r" << +in.rd << ", " << in.imm;
        break;
      case Op::kAbs:
        os << " r" << +in.rd << ", r" << +in.rs1;
        break;
      case Op::kLdw:
      case Op::kLdb:
        os << " r" << +in.rd << ", [r" << +in.rs1 << "+" << in.imm << "]";
        break;
      case Op::kStw:
      case Op::kStb:
        os << " [r" << +in.rs1 << "+" << in.imm << "], r" << +in.rs2;
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
        os << " r" << +in.rs1 << ", r" << +in.rs2 << ", L" << in.target;
        break;
      case Op::kJmp:
        os << " L" << in.target;
        break;
      case Op::kWait:
      case Op::kKexec:
        os << " " << in.imm;
        break;
      case Op::kTrig:
        os << " " << in.imm << ", " << in.target;
        break;
      case Op::kAddi:
      case Op::kSubi:
      case Op::kAndi:
      case Op::kOri:
      case Op::kSlli:
      case Op::kSrli:
        os << " r" << +in.rd << ", r" << +in.rs1 << ", " << in.imm;
        break;
      default:
        os << " r" << +in.rd << ", r" << +in.rs1 << ", r" << +in.rs2;
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace mrts::riscsim
