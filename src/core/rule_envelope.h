#ifndef CSXA_CORE_RULE_ENVELOPE_H_
#define CSXA_CORE_RULE_ENVELOPE_H_

/// \file rule_envelope.h
/// \brief The per-subject rule envelope — the access-rights update protocol.
///
/// Demonstration objective 2 (§1) stresses that "the tamper resistance of
/// the access control relies not only on the SOE but also on the whole
/// environment (e.g., communication protocol, access rights update
/// protocol)". The owner seals a document's rules into one envelope the
/// DSP stores as an opaque blob:
///
///     header:  u64 version | 16 B nonce | varint n | n x 8 B label | 16 B tag
///     record:  varint length | ciphertext | 16 B tag        (n of them)
///
/// Each subject's rules form one record, in the order of the header's
/// labels. A label is an HMAC of the subject's name under the document's
/// MAC key, so only a key holder can tell whose record is whose. The
/// header tag authenticates the version, the nonce and the label list; a
/// record's tag authenticates its ciphertext (AES-CTR under the nonce and
/// its label) together with the header tag and its label, so a record
/// cannot be moved to another label, version or document.
///
/// The card of one holder receives the header and its own record, or the
/// header alone when it has no record: the terminal cuts them out
/// (CutRuleMessage) by the label the card names at select. The card
/// checks the header, finds its label, and then demands exactly its
/// record, so a terminal can neither withhold it nor hand it another's.
///
/// What the DSP learns: the number of subjects and the length of each
/// record, never a subject's name. Replay of a stale envelope is the one
/// attack the MACs cannot stop; the card records the highest version it
/// accepted per document in its secure stable storage and refuses older
/// ones — for a subject with no record too, since the version sits in the
/// authenticated header. A card that never saw the newer policy cannot
/// detect the rollback, the inherent limit of offline revocation shared
/// with the original system.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/rule.h"
#include "crypto/keys.h"

namespace csxa::core {

/// Opaque name of one subject's record in an envelope.
using RuleLabel = std::array<uint8_t, 8>;

/// The label of `subject`'s record under the document's cipher context.
RuleLabel SubjectLabel(const crypto::DocCipher& cipher,
                       std::string_view subject);

/// Seals `rules` at `version`: one record per subject, all under `cipher`.
Bytes SealRuleEnvelope(const crypto::DocCipher& cipher, const RuleSet& rules,
                       uint64_t version, Rng* rng);

/// Terminal side: replaces `*message` with the envelope's header followed
/// by the record labeled `label`, or by nothing when the header does not
/// list it. Reads only the framing; IntegrityError if that is malformed.
/// Allocates nothing once `message` has the capacity.
Status CutRuleMessage(Span envelope, const RuleLabel& label, Bytes* message);

/// Card side: opens the message CutRuleMessage made for `subject`, whose
/// label the card computed itself (SubjectLabel), and returns the
/// envelope's version. Checks the header tag, finds `label` and, when the
/// header lists it, checks and decrypts its record into `*plain` (scratch
/// the caller reuses; left empty without a record) and parses its rules,
/// as `subject`'s, into `*rules`, whose elements are reused. A bad tag, a
/// missing, cut-short or surplus record is IntegrityError; a record whose
/// authentic plaintext does not parse is ParseError.
Result<uint64_t> OpenRuleMessage(const crypto::DocCipher& cipher,
                                 Span message, const RuleLabel& label,
                                 std::string_view subject, Bytes* plain,
                                 std::vector<AccessRule>* rules);

}  // namespace csxa::core

#endif  // CSXA_CORE_RULE_ENVELOPE_H_
