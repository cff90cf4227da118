#ifndef CSXA_DSP_DURABLE_H_
#define CSXA_DSP_DURABLE_H_

/// \file durable.h
/// \brief Disk-backed DSP: the crash-safe, tamper-evident Service backend.
///
/// DspServer loses everything on restart; DurableServer serves the same
/// dsp::DocTable (doc_table.h) but commits every mutation of its
/// (container bytes, sealed rules, rules version) state to the sealed
/// block layer of dsp/blockfile.h, under the paper's threat model extended
/// to the disk: the storage volume is as untrusted as the DSP process, so
/// every persisted byte is authenticated-encrypted and position-bound
/// (crypto/blockseal.h), and every crash or corruption must be *detected*,
/// never silently decrypted around.
///
/// ## Commit protocol
///
/// Every mutation is one blob (doc_id + version + payload, sealed across
/// 4 KB data blocks) plus one 512 B manifest record naming the blob's
/// extent, written strictly in this order:
///
///   1. append the blob's data blocks          (not yet reachable)
///   2. fsync the data segments                (blocks durable, orphaned)
///   3. append + fsync one manifest record     (<-- the commit point)
///
/// A crash before step 3 leaves orphaned tail blocks that no manifest
/// record names; recovery truncates them and the store reopens in exactly
/// the pre-op state. A crash after step 3 is simply the post-op state.
/// There is no window in which a record names blocks that are not durable:
/// creating a segment file (or the MANIFEST) also fsyncs its directory, so
/// the dirent cannot be lost after a record referencing the segment
/// commits. Nonces are structurally unique — `epoch || counter`, with the
/// epoch drawn from the Env's entropy source at every open — so a crash
/// that rewinds block indices never reuses a CTR keystream (see
/// crypto/blockseal.h).
///
/// ## Recovery state machine (on Open)
///
///   scan manifest ── torn tail (≤1 unreadable trailing frame + partial
///        │           bytes) → truncate; interior invalid record →
///        │           kIntegrityError, store does not open
///        ▼
///   replay records → documents, versions, tombstones, live extents
///        ▼
///   GC: truncate data blocks past the last committed extent (orphans of
///        an interrupted step 1-2)
///        ▼
///   last record kClean?  yes → *warm open*: blobs verified lazily on
///        │                     first access
///        no → *cold open*: eagerly read + authenticate every live doc
///        ▼
///   verification failure (bit flip, truncation, relocation, transplant,
///   extent remap) → the document is *quarantined*: reads fail with a
///   typed kIntegrityError naming the damage; every other document keeps
///   serving; republishing the id heals it.
///
/// Close() appends the kClean shutdown marker; destruction without Close()
/// (a crash) leaves no marker, forcing the cold path. A warm open
/// *consumes* the marker (it appends an in-use record on top), so a crash
/// after a warm open is still detected as unclean next time.
///
/// Each blob embeds its own doc_id and version, cross-checked against the
/// manifest record that names it — a DSP that remaps extents between
/// documents (both individually authentic) is caught at load.
///
/// Threading: like DspServer, Execute() is safe from any number of
/// threads. Loaded documents serve reads under a shared lock from memory;
/// mutations and first-access loads of a warm open serialize on the
/// exclusive lock, which also serializes every BlockLog / ManifestLog
/// call (see blockfile.h).

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "dsp/blockfile.h"
#include "dsp/doc_table.h"
#include "dsp/service.h"

namespace csxa::dsp {

/// \brief Configuration for DurableServer::Open.
struct DurableOptions {
  /// Directory holding MANIFEST and data-NNNNNN.seg (created if absent).
  std::string directory;
  /// Identity baked into every block's AAD: blocks from a store with a
  /// different id (or the manifest of any store) never authenticate here.
  std::string store_id = "dsp";
  /// Store sealing key; never written to the env.
  crypto::SymmetricKey key;
  /// Filesystem to run on; null means the real one (PosixEnv::Default()).
  Env* env = nullptr;
  /// Data segment size; rounded down to whole 4 KB blocks.
  size_t segment_bytes = 4 << 20;
  /// Rollback anchor: the publisher's record of how many manifest records
  /// the store had committed (the `commit_seq` of its last mutation
  /// response). When non-zero, Open fails with kIntegrityError if fewer
  /// valid records survive the scan — catching a hostile volume that
  /// rolled back the last committed mutation disguised as a crash's torn
  /// tail. 0 disables the check.
  uint64_t expected_manifest_records = 0;
};

/// \brief What recovery found and did while opening the store.
struct RecoveryReport {
  bool clean_shutdown = false;   ///< last manifest record was kClean
  uint64_t manifest_records = 0;  ///< valid records replayed
  uint64_t torn_tail_records = 0;  ///< manifest frames dropped as torn
  uint64_t torn_tail_bytes = 0;    ///< manifest + data tail bytes dropped
  /// A whole trailing manifest frame failed authentication and was
  /// dropped. A crash mid-append leaves this — but so does an attacker
  /// flipping one bit of the last committed record to silently roll back
  /// exactly one mutation. Publishers holding a `commit_seq` commitment
  /// should verify it (or open with expected_manifest_records set).
  bool rollback_suspected = false;
  uint64_t orphaned_blocks_gced = 0;  ///< uncommitted data blocks truncated
  uint64_t blocks_verified = 0;  ///< blocks authenticated during eager verify
  uint64_t documents = 0;        ///< live documents after replay
  /// Documents whose blobs failed verification on a cold open.
  std::vector<std::string> quarantined;
};

/// \brief Durable DSP backend speaking the Service protocol.
class DurableServer : public Service {
 public:
  /// Opens (creating or recovering) the store at `options.directory`.
  static Result<std::unique_ptr<DurableServer>> Open(DurableOptions options);

  Result<Response> Execute(Request request) override;
  ServiceStats stats() const override {
    std::shared_lock lock(mu_);
    return table_.stats();
  }

  /// Appends the clean-shutdown marker. Idempotent; after OK, destroying
  /// the server and reopening takes the warm path.
  Status Close();

  /// What Open's recovery pass found.
  const RecoveryReport& recovery() const { return recovery_; }

  /// Documents currently quarantined (damaged, serving kIntegrityError).
  std::vector<std::string> quarantined() const;

  size_t size() const {
    std::shared_lock lock(mu_);
    return table_.size();
  }

 private:
  /// Where a live document's blobs sit in the block log, and whether
  /// verifying them failed. The serving state is loaded when
  /// `Entry::loaded()`.
  struct DocMeta {
    uint64_t commit_version = 0;  ///< version embedded in the commit blob
    uint64_t first_block = 0;   ///< commit blob extent (container + rules)
    uint64_t block_count = 0;
    uint64_t rules_first = 0;   ///< later rules-update blob; count 0 = none
    uint64_t rules_count = 0;
    /// Quarantine: the damage verification found. Reads and rules updates
    /// return it until a republish replaces the entry (or remove drops it).
    Status damage;
  };
  using Table = DocTable<DocMeta>;

  DurableServer() = default;

  /// Commits one mutation: for record types that carry a blob, writes it
  /// as sealed blocks and fsyncs them; then appends the manifest record,
  /// the commit point, and applies it. Requires the exclusive lock.
  Result<Table::Entry*> Commit(uint8_t type, const std::string& doc_id,
                               uint64_t version, Span container,
                               Span sealed_rules);
  /// Applies one committed manifest record to the table — the one path
  /// for Open's replay and for live mutations. Returns the entry a
  /// kCommit/kRulesCommit record describes (its serving state not
  /// loaded by a kCommit), null for other types.
  Result<Table::Entry*> Apply(uint8_t type, const std::string& doc_id,
                              uint64_t version, uint64_t first_block,
                              uint64_t block_count);
  /// Reads a blob back from its extent. Requires the exclusive lock.
  Result<Bytes> ReadExtent(uint64_t first, uint64_t count) const;
  /// Loads + verifies a doc's blobs into memory (exclusive lock). On any
  /// failure the doc's state is untouched and the error is returned.
  Status LoadDoc(const std::string& doc_id, Table::Entry* doc);
  /// The live, undamaged entry for a read or rules update (either lock).
  Result<Table::Entry*> Healthy(const std::string& doc_id);

  RecoveryReport recovery_;

  /// Guards everything below plus all BlockLog / ManifestLog calls.
  mutable std::shared_mutex mu_;
  BlockLog blocks_;
  ManifestLog manifest_;
  crypto::NonceSequence nonces_;
  Table table_;
  bool closed_ = false;
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_DURABLE_H_
