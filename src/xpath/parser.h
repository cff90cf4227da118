#ifndef CSXA_XPATH_PARSER_H_
#define CSXA_XPATH_PARSER_H_

/// \file parser.h
/// \brief Recursive-descent parser for the XP{[],*,//} fragment.
///
/// Grammar (whitespace insignificant outside literals):
///
///   path       := ('/' | '//') step (('/' | '//') step)*
///   step       := nametest predicate*
///   nametest   := NAME | '*'
///   predicate  := '[' relpath (cmp literal)? ']'
///   relpath    := ('.//')? step (('/' | '//') step)*
///   cmp        := '=' | '!=' | '<' | '<=' | '>' | '>='
///   literal    := '"' chars '"' | '\'' chars '\'' | number
///
/// Anything outside the fragment (attributes, functions, position
/// predicates, nested predicates within predicates, absolute paths inside
/// predicates) yields NotSupported — mirroring the paper's deliberate
/// restriction to a containment-decidable fragment [7].

#include <string>
#include <string_view>

#include "common/status.h"
#include "xpath/ast.h"

namespace csxa::xpath {

/// Parses an absolute path expression. The result owns its names and
/// literals; `text` is read in place.
Result<PathExpr> ParsePath(std::string_view text);

/// Parses a relative path with optional trailing comparison — the body of
/// a predicate (exposed for tests).
Result<Predicate> ParsePredicateBody(std::string_view text);

}  // namespace csxa::xpath

#endif  // CSXA_XPATH_PARSER_H_
