#ifndef CSXA_TESTS_RULE_MESSAGE_H_
#define CSXA_TESTS_RULE_MESSAGE_H_

// The rule message a terminal hands one subject's card, for tests that
// drive a card directly and hold the document key.

#include <string_view>

#include "core/rule_envelope.h"

namespace csxa::fakes {

// The envelope's header and `subject`'s record, as core::CutRuleMessage
// cuts them by the subject's label.
inline Result<Bytes> RuleMessageFor(const crypto::DocCipher& cipher,
                                    Span envelope, std::string_view subject) {
  Bytes message;
  CSXA_RETURN_IF_ERROR(core::CutRuleMessage(
      envelope, core::SubjectLabel(cipher, subject), &message));
  return message;
}

}  // namespace csxa::fakes

#endif  // CSXA_TESTS_RULE_MESSAGE_H_
