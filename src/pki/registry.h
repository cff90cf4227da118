#ifndef CSXA_PKI_REGISTRY_H_
#define CSXA_PKI_REGISTRY_H_

/// \file registry.h
/// \brief Simulated PKI: key exchange between community members.
///
/// Per the paper's own demo setup, "we will not use a PKI infrastructure
/// but rather simulate it ... PKI is a well-known technique that need not
/// be demonstrated" (§3, footnote 2). The registry plays the role of the
/// wrapped-key exchange: document owners deposit per-document secret keys
/// for named grantees; a grantee's terminal fetches its grants and
/// installs them in the card's secure storage.
///
/// Threading: safe for concurrent use — owners grant keys while terminal
/// sessions fetch them (the multi-tenant serving path). All operations
/// take one mutex; none are hot enough to need finer grain.

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/keys.h"

namespace csxa::pki {

/// \brief Simulated certificate/key-exchange authority.
class KeyRegistry {
 public:
  /// Registers a community member. Idempotent.
  void RegisterUser(const std::string& user) {
    std::lock_guard lock(mu_);
    users_.insert(user);
  }
  /// All registered users.
  std::vector<std::string> Users() const {
    std::lock_guard lock(mu_);
    return std::vector<std::string>(users_.begin(), users_.end());
  }

  /// Owner deposits `key` for `user` on `doc_id` (models a key wrapped
  /// under the grantee's public key). Fails on unknown users.
  Status Grant(const std::string& doc_id, const std::string& user,
               const crypto::SymmetricKey& key);
  /// Revokes a grant. NOTE: revocation alone does not protect already
  /// distributed content — the paper's dynamic-rule model handles
  /// fine-grained revocation by updating rules, not by re-keying.
  Status Revoke(const std::string& doc_id, const std::string& user);
  /// Grantee-side fetch (models unwrapping with the private key).
  Result<crypto::SymmetricKey> Fetch(const std::string& doc_id,
                                     const std::string& user) const;
  /// Number of grants for a document.
  size_t GrantCount(const std::string& doc_id) const;
  /// Total keys ever distributed (for EXP-DYN accounting).
  uint64_t keys_distributed() const {
    std::lock_guard lock(mu_);
    return keys_distributed_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::string> users_;
  std::map<std::pair<std::string, std::string>, crypto::SymmetricKey> grants_;
  uint64_t keys_distributed_ = 0;
};

}  // namespace csxa::pki

#endif  // CSXA_PKI_REGISTRY_H_
