// Tokenizer for the relspec surface language (see parser.h for the grammar).

#ifndef RELSPEC_PARSER_LEXER_H_
#define RELSPEC_PARSER_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace relspec {

enum class TokenKind {
  kIdent,      // Meets, tony, ext, x
  kInteger,    // 0, 42
  kLParen,     // (
  kRParen,     // )
  kComma,      // ,
  kDot,        // .
  kArrow,      // ->
  kColonDash,  // :-
  kQuestion,   // ?
  kPlus,       // +
  kEquals,     // =
  kEof,
};

/// A token. `text` points into the tokenized input, which must outlive it.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;
  long value = 0;  // for kInteger
  int line = 1;
  int column = 1;
};

const char* TokenKindName(TokenKind kind);

/// Tokenizes the whole of `input` into one array ending in kEof, or fails
/// on the first character no token starts with. Comments run from '%' or
/// "//" to end of line. Characters are classified as ASCII, independent of
/// the process locale.
StatusOr<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace relspec

#endif  // RELSPEC_PARSER_LEXER_H_
