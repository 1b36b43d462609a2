#include "src/parser/lexer.h"

#include <cctype>
#include <charconv>

#include "src/base/str_util.h"

namespace relspec {

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
  int line = 1;
  int col = 1;
  size_t i = 0;
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (input[i + k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += n;
  };
  while (i < input.size()) {
    char c = input[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '%' || (c == '/' && i + 1 < input.size() && input[i + 1] == '/')) {
      while (i < input.size() && input[i] != '\n') advance(1);
      continue;
    }
    Token tok;
    tok.line = line;
    tok.column = col;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[j])) ||
              input[j] == '_' || input[j] == '\'')) {
        ++j;
      }
      tok.kind = TokenKind::kIdent;
      tok.text = input.substr(i, j - i);
      advance(j - i);
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < input.size() && std::isdigit(static_cast<unsigned char>(input[j]))) {
        ++j;
      }
      tok.kind = TokenKind::kInteger;
      tok.text = input.substr(i, j - i);
      const std::from_chars_result parsed = std::from_chars(
          tok.text.data(), tok.text.data() + tok.text.size(), tok.value);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument(
            StrFormat("line %d:%d: integer %s out of range", line, col,
                      std::string(tok.text).c_str()));
      }
      advance(j - i);
      out.push_back(std::move(tok));
      continue;
    }
    switch (c) {
      case '(': tok.kind = TokenKind::kLParen; advance(1); break;
      case ')': tok.kind = TokenKind::kRParen; advance(1); break;
      case ',': tok.kind = TokenKind::kComma; advance(1); break;
      case '.': tok.kind = TokenKind::kDot; advance(1); break;
      case '?': tok.kind = TokenKind::kQuestion; advance(1); break;
      case '+': tok.kind = TokenKind::kPlus; advance(1); break;
      case '=': tok.kind = TokenKind::kEquals; advance(1); break;
      case '-':
        if (i + 1 < input.size() && input[i + 1] == '>') {
          tok.kind = TokenKind::kArrow;
          advance(2);
          break;
        }
        return Status::InvalidArgument(
            StrFormat("line %d:%d: unexpected character '-'", line, col));
      case ':':
        if (i + 1 < input.size() && input[i + 1] == '-') {
          tok.kind = TokenKind::kColonDash;
          advance(2);
          break;
        }
        return Status::InvalidArgument(
            StrFormat("line %d:%d: unexpected character ':'", line, col));
      default:
        return Status::InvalidArgument(
            StrFormat("line %d:%d: unexpected character '%c'", line, col, c));
    }
    out.push_back(std::move(tok));
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.line = line;
  eof.column = col;
  out.push_back(eof);
  return out;
}

}  // namespace relspec
