#include "src/parser/lexer.h"

#include <array>
#include <charconv>
#include <cstdint>

#include "src/base/str_util.h"

namespace relspec {
namespace {

// Character classes, ASCII only: a byte from 0x80 up belongs to none, so it
// is rejected wherever it starts a token and ends an identifier it follows,
// whatever the process locale says.
enum CharClass : uint8_t {
  kSpace = 1,       // ' ', '\t', '\r', '\n'
  kIdentStart = 2,  // [A-Za-z_]
  kIdentPart = 4,   // [A-Za-z0-9_']
  kDigit = 8,       // [0-9]
};

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> table{};
  for (char c : {' ', '\t', '\r', '\n'}) {
    table[static_cast<uint8_t>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kIdentStart | kIdentPart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kIdentStart | kIdentPart;
  for (int c = '0'; c <= '9'; ++c) table[c] = kIdentPart | kDigit;
  table['_'] = kIdentStart | kIdentPart;
  table['\''] = kIdentPart;
  return table;
}();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<uint8_t>(c)] & cls) != 0;
}

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kInteger: return "integer";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kColonDash: return "':-'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kEquals: return "'='";
    case TokenKind::kEof: return "end of input";
  }
  return "?";
}

StatusOr<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> out;
  // Most tokens are followed by a separator, so this is rarely outgrown.
  out.reserve(input.size() / 2 + 1);
  const size_t n = input.size();
  int line = 1;
  size_t line_start = 0;  // offset of the current line's first byte
  size_t i = 0;
  while (i < n) {
    const char c = input[i];
    if (Is(c, kSpace)) {
      if (c == '\n') {
        ++line;
        line_start = i + 1;
      }
      ++i;
      continue;
    }
    if (c == '%' || (c == '/' && i + 1 < n && input[i + 1] == '/')) {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    const int col = static_cast<int>(i - line_start) + 1;
    Token& tok = out.emplace_back();
    tok.line = line;
    tok.column = col;
    size_t len = 1;
    if (Is(c, kIdentStart)) {
      while (i + len < n && Is(input[i + len], kIdentPart)) ++len;
      tok.kind = TokenKind::kIdent;
      tok.text = input.substr(i, len);
    } else if (Is(c, kDigit)) {
      while (i + len < n && Is(input[i + len], kDigit)) ++len;
      tok.kind = TokenKind::kInteger;
      tok.text = input.substr(i, len);
      const std::from_chars_result parsed = std::from_chars(
          tok.text.data(), tok.text.data() + tok.text.size(), tok.value);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument(
            StrFormat("line %d:%d: integer %s out of range", line, col,
                      std::string(tok.text).c_str()));
      }
    } else {
      switch (c) {
        case '(': tok.kind = TokenKind::kLParen; break;
        case ')': tok.kind = TokenKind::kRParen; break;
        case ',': tok.kind = TokenKind::kComma; break;
        case '.': tok.kind = TokenKind::kDot; break;
        case '?': tok.kind = TokenKind::kQuestion; break;
        case '+': tok.kind = TokenKind::kPlus; break;
        case '=': tok.kind = TokenKind::kEquals; break;
        case '-':
          if (i + 1 < n && input[i + 1] == '>') {
            tok.kind = TokenKind::kArrow;
            len = 2;
            break;
          }
          return Status::InvalidArgument(
              StrFormat("line %d:%d: unexpected character '-'", line, col));
        case ':':
          if (i + 1 < n && input[i + 1] == '-') {
            tok.kind = TokenKind::kColonDash;
            len = 2;
            break;
          }
          return Status::InvalidArgument(
              StrFormat("line %d:%d: unexpected character ':'", line, col));
        default:
          return Status::InvalidArgument(
              StrFormat("line %d:%d: unexpected character '%c'", line, col, c));
      }
    }
    i += len;
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.line = line;
  eof.column = static_cast<int>(n - line_start) + 1;
  out.push_back(eof);
  return out;
}

}  // namespace relspec
