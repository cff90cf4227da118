#ifndef CSXA_CORE_REF_EVALUATOR_H_
#define CSXA_CORE_REF_EVALUATOR_H_

/// \file ref_evaluator.h
/// \brief DOM-based reference implementation of the access-control
/// semantics — the oracle against which the streaming evaluator is tested,
/// and the engine of the trusted-server baseline.
///
/// Implements exactly the semantics set out in src/core/README.md
/// ("Access-control semantics") by brute force: materialize the document,
/// compute every rule's match set, resolve conflicts per node, prune.

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/rule.h"
#include "xml/dom.h"
#include "xpath/ast.h"

namespace csxa::core {

/// \brief Per-node authorization outcome (reference semantics).
struct NodeAuth {
  bool permitted = false;
  /// Depth of the most specific rule match governing the decision
  /// (-1 when the closed policy applied).
  int deciding_depth = -1;
};

/// Computes the authorization of a single element node under `rules`
/// (already filtered to one subject).
NodeAuth AuthorizeNode(const xml::DomNode* root,
                       const std::vector<AccessRule>& rules,
                       const xml::DomNode* node);

/// \brief Builds the delivered view: permitted elements (attributes and
/// direct text included) restricted to the query scope, plus bare tags of
/// ancestors of delivered nodes. Returns an empty document if nothing is
/// delivered.
///
/// `query` may be null (no query restriction). The result serializes, in
/// canonical form, to exactly what the streaming evaluator emits.
Result<xml::DomDocument> BuildAuthorizedView(
    const xml::DomDocument& doc, const std::vector<AccessRule>& rules,
    const xpath::PathExpr* query);

/// Convenience: fraction of element nodes delivered (0 when empty), used
/// by workload calibration in benchmarks.
double AuthorizedFraction(const xml::DomDocument& doc,
                          const std::vector<AccessRule>& rules,
                          const xpath::PathExpr* query);

/// Batch authorization: permitted flag for every element of the document
/// in pre-order (index 0 = root). Powers the subset-encryption baseline.
std::vector<bool> AuthorizeAll(const xml::DomDocument& doc,
                               const std::vector<AccessRule>& rules);

}  // namespace csxa::core

#endif  // CSXA_CORE_REF_EVALUATOR_H_
