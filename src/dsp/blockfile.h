#ifndef CSXA_DSP_BLOCKFILE_H_
#define CSXA_DSP_BLOCKFILE_H_

/// \file blockfile.h
/// \brief The durable backend's block layer: an injectable file
/// abstraction, deterministic disk-fault injection, segmented sealed-block
/// storage and the sequenced manifest log.
///
/// Everything dsp::DurableServer persists goes through two append-only
/// structures built here:
///
///  - **BlockLog** — the *data* half: fixed-size authenticated-encrypted
///    blocks (crypto/blockseal.h; 4 KB, per-block nonce + auth tag, AAD =
///    `(store_id, block_index)`) appended into large segment files
///    (`data-NNNNNN.seg`, 4 MB by default, à la destor's containers).
///    Block indices are global across segments, so the segment split is
///    pure file hygiene — the AAD still pins every block to one position
///    in one store.
///  - **ManifestLog** — the *meta* half: a single append-only `MANIFEST`
///    file of fixed-frame (512 B) sealed records, each sealed like a data
///    block with AAD `(store_id + "#manifest", sequence number)` — record
///    N lives at offset N * 512 and nowhere else, so the manifest can no
///    more be reordered or spliced than the data can. A record is the
///    commit point of every mutation: data blocks are written and fsynced
///    *first*, then one manifest record is appended and fsynced. Recovery
///    replays the valid record prefix; a torn tail (crash artifact: a
///    partial final frame, or at most one full final frame that fails
///    authentication) is truncated, while an *interior* invalid record —
///    valid records follow it, which no crash produces — is tampering and
///    fails the scan with a typed kIntegrityError.
///
/// Both halves do I/O only through the Env/File interface, so tests swap
/// in MemEnv (hermetic in-RAM filesystem whose state survives a simulated
/// process death) and wrap any Env in FaultyEnv, which executes a
/// DiskFaultPlan: crash-at-write-point k (with an optional torn tail on
/// the dying append), scripted single-bit flips and truncate-at-offset
/// applied when a file is next opened. The crash-point matrix test walks
/// every k for every mutation and proves recovery lands on exactly the
/// pre-op or post-op state.
///
/// Threading: Env implementations are thread-safe; BlockLog and
/// ManifestLog are NOT — DurableServer serializes every BlockLog /
/// ManifestLog call (appends, syncs and block reads alike) on one writer
/// mutex; the hot read path serves from memory and never touches them.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/blockseal.h"
#include "crypto/keys.h"

namespace csxa::dsp {

/// \brief One open file: positional reads, appends, truncate, fsync.
class File {
 public:
  virtual ~File() = default;
  /// Reads up to `n` bytes at `offset`; short reads near EOF return fewer.
  virtual Result<Bytes> ReadAt(uint64_t offset, size_t n) const = 0;
  virtual Status Append(Span data) = 0;
  /// Overwrites in place (used by fault injection to corrupt at-rest
  /// bytes; the store itself never overwrites).
  virtual Status WriteAt(uint64_t offset, Span data) = 0;
  virtual Status Truncate(uint64_t size) = 0;
  /// Durability barrier: everything appended before this survives a crash.
  virtual Status Sync() = 0;
  virtual Result<uint64_t> Size() const = 0;
};

/// \brief Minimal filesystem the block layer runs on.
class Env {
 public:
  virtual ~Env() = default;
  /// Opens (creating if `create`) the file at `path`.
  virtual Result<std::unique_ptr<File>> Open(const std::string& path,
                                            bool create) = 0;
  virtual bool Exists(const std::string& path) const = 0;
  virtual Status Remove(const std::string& path) = 0;
  /// Creates a directory (and parents); OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;
  /// Durability barrier for the directory itself: file creations and
  /// removals inside `path` done before this survive a crash. fsyncing a
  /// file makes its *contents* durable, not its directory entry — without
  /// this a power loss can keep a durable manifest record while losing
  /// the segment file it names.
  virtual Status SyncDir(const std::string& path) = 0;
  /// `n` fresh entropy bytes. The real env reads the OS CSPRNG; MemEnv
  /// serves a deterministic stream that lives in the env (the simulated
  /// machine), so successive store opens — including crash-recovery
  /// reopens — draw distinct values while tests stay reproducible.
  virtual Result<Bytes> RandomBytes(size_t n) = 0;
};

/// \brief Real filesystem via POSIX I/O (pread/write/ftruncate/fsync).
class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     bool create) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  /// getentropy(), falling back to /dev/urandom.
  Result<Bytes> RandomBytes(size_t n) override;

  /// Process-wide instance.
  static PosixEnv* Default();
};

/// \brief Hermetic in-memory filesystem. Files live in the Env object, so
/// a "process crash" (dropping every File/store object) and a "reboot"
/// (reopening against the same MemEnv) exercise the exact durable-state
/// contract without touching a disk. Thread-safe.
class MemEnv : public Env {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     bool create) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string&) override { return Status::OK(); }
  Status SyncDir(const std::string&) override { return Status::OK(); }
  Result<Bytes> RandomBytes(size_t n) override;

  /// Direct peek at a file's current bytes (tests).
  Result<Bytes> Snapshot(const std::string& path) const;

 private:
  friend class MemFile;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Bytes>> files_;
  Rng entropy_{0xe47286a1b5ULL};  ///< survives simulated crashes with files_
};

/// \brief Scripted disk faults for one FaultyEnv.
struct DiskFaultPlan {
  /// Mutations (Append / WriteAt / Truncate / Sync / Remove) are numbered
  /// from 0 as they arrive. The mutation with this index — and everything
  /// after it — does not happen: the env is "dead" and returns kIoError
  /// until Revive(). Default: never crash.
  uint64_t crash_at_write_point = UINT64_MAX;
  /// When the crashing mutation is an Append, this many of its bytes ARE
  /// persisted first — the torn final block a real power cut leaves.
  size_t torn_tail_bytes = 0;

  /// At-rest corruption: XOR one bit into byte `offset` of the first file
  /// whose path contains `path_substring`, applied when that file is next
  /// opened (each entry fires once).
  struct BitFlip {
    std::string path_substring;
    uint64_t offset = 0;
    uint8_t mask = 0x01;
  };
  std::vector<BitFlip> bit_flips;

  /// At-rest truncation: cut the matching file to `size` bytes when it is
  /// next opened (each entry fires once).
  struct TruncateAt {
    std::string path_substring;
    uint64_t size = 0;
  };
  std::vector<TruncateAt> truncates;
};

/// \brief Env decorator executing a DiskFaultPlan. Thread-safe.
class FaultyEnv : public Env {
 public:
  /// `base` must outlive this env.
  FaultyEnv(Env* base, DiskFaultPlan plan);
  explicit FaultyEnv(Env* base) : FaultyEnv(base, DiskFaultPlan{}) {}

  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     bool create) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  /// Counts as a mutation: a crash can land between creating a file and
  /// making its directory entry durable.
  Status SyncDir(const std::string& path) override;
  Result<Bytes> RandomBytes(size_t n) override;

  /// Re-arms the crash: the `after`-th mutation from *now* dies (0 = the
  /// very next one), tearing `torn_tail_bytes` of a dying append.
  void ArmCrash(uint64_t after, size_t torn_tail_bytes = 0);
  /// The reboot: clears the dead state (and any pending crash) so the
  /// store can be reopened against the surviving bytes.
  void Revive();
  bool crashed() const;
  /// Mutations executed so far (counting the one that crashed).
  uint64_t write_points() const;

 private:
  friend class FaultyFile;
  /// Returns true when the current mutation must die (counts it).
  bool MutationDies();
  /// Bytes of a dying append that still reach the base file.
  size_t torn_tail() const;

  Env* base_;
  mutable std::mutex mu_;
  DiskFaultPlan plan_;
  uint64_t writes_ = 0;
  uint64_t crash_at_ = UINT64_MAX;
  size_t torn_tail_ = 0;
  bool dead_ = false;
};

/// \brief The data half: sealed blocks appended across segment files.
///
/// Blocks are written with crypto::SealBlock under the store key's cipher
/// context (derived once at Open) and AAD `(store_id, global block
/// index)`; segment `s` holds global indices
/// `[s * blocks_per_segment, (s+1) * blocks_per_segment)`.
class BlockLog {
 public:
  /// Opens (or creates) the log rooted at `dir` on `env`. `segment_bytes`
  /// is rounded down to a whole number of blocks (min 1). A partial block
  /// at the tail of the last segment (a torn final write) is truncated
  /// away and reported through `torn_tail_bytes` when non-null.
  static Result<BlockLog> Open(Env* env, std::string dir,
                               crypto::SymmetricKey key, std::string store_id,
                               size_t segment_bytes,
                               uint64_t* torn_tail_bytes = nullptr);

  /// Appends one sealed block; returns its global index. Not durable
  /// until Sync(). A failed append (e.g. ENOSPC after a partial write)
  /// truncates the segment back to the last whole-block boundary so later
  /// appends stay frame-aligned; if even that fails, the log is poisoned
  /// and every further append is refused — it never corrupts forward.
  Result<uint64_t> AppendBlock(Span payload, crypto::NonceSequence* nonces);
  /// Reads and opens (verifies + decrypts) block `index`.
  Result<Bytes> ReadBlock(uint64_t index) const;
  /// Fsyncs every segment touched since the last Sync().
  Status Sync();
  /// Drops every block with index >= `count` (recovery truncating
  /// orphaned, never-committed appends), deleting emptied segments.
  Status TruncateBlocks(uint64_t count);

  uint64_t block_count() const { return block_count_; }
  uint64_t blocks_per_segment() const { return blocks_per_segment_; }
  /// Total sealed bytes on disk.
  uint64_t disk_bytes() const {
    return block_count_ * crypto::kSealedBlockSize;
  }

  /// Empty log; assign from Open() before use.
  BlockLog() = default;

 private:
  std::string SegmentPath(uint64_t seq) const;
  /// Segment holding `index`, opened lazily and cached.
  Result<File*> SegmentFor(uint64_t index, bool create) const;

  Env* env_ = nullptr;
  std::string dir_;
  std::optional<crypto::DocCipher> cipher_;  // set by Open()
  std::string store_id_;
  uint64_t blocks_per_segment_ = 0;
  uint64_t block_count_ = 0;
  bool poisoned_ = false;  // failed append could not be realigned
  mutable std::map<uint64_t, std::unique_ptr<File>> segments_;  // lazy cache
  std::vector<uint64_t> dirty_;  // segment seqs with unsynced appends
};

/// Fixed frame size of one manifest record on disk.
inline constexpr size_t kManifestRecordSize = 512;
/// Maximum payload of one manifest record.
inline constexpr size_t kManifestPayloadCapacity =
    crypto::BlockPayloadCapacity(kManifestRecordSize);

/// \brief Result of scanning a manifest.
struct ManifestScan {
  std::vector<Bytes> records;  ///< payloads of the valid prefix, in order
  /// Trailing bytes dropped as a torn write (a partial final frame and/or
  /// one final full frame failing authentication).
  uint64_t torn_tail_bytes = 0;
  /// Full final frames dropped (0 or 1). Unlike a partial frame — which
  /// only an interrupted append produces — a whole frame failing
  /// authentication is ambiguous: a crash mid-frame leaves it, but so
  /// does an attacker flipping one bit of the *last committed record* to
  /// roll the store back by exactly one mutation. Callers must surface
  /// this (DurableServer reports it as rollback_suspected and lets
  /// publishers anchor the expected record count; see DurableOptions).
  uint64_t torn_tail_records = 0;
};

/// \brief The meta half: sequenced sealed records in one append-only file.
class ManifestLog {
 public:
  /// Opens (creating) the manifest and scans it. A torn tail is truncated
  /// and reported in the scan; an invalid record *followed by a valid
  /// one* fails with kIntegrityError — crashes tear tails, only tampering
  /// makes holes.
  static Result<ManifestLog> Open(Env* env, std::string path,
                                  crypto::SymmetricKey key,
                                  std::string store_id, ManifestScan* scan);

  /// Appends one sealed record (next sequence number) and fsyncs — this
  /// is the commit point. The record is durable when Append returns OK.
  /// On append/fsync failure the file is truncated back to the last
  /// committed frame so the log stays frame-aligned (the record did NOT
  /// commit); if realignment fails too, the log is poisoned and refuses
  /// all further appends rather than corrupt forward.
  Status Append(Span payload, crypto::NonceSequence* nonces);

  uint64_t next_seq() const { return next_seq_; }

  /// Empty log; assign from Open() before use.
  ManifestLog() = default;

 private:
  Env* env_ = nullptr;
  std::string path_;
  std::optional<crypto::DocCipher> cipher_;  // set by Open()
  std::string store_id_;
  std::unique_ptr<File> file_;
  uint64_t next_seq_ = 0;
  bool poisoned_ = false;  // failed append could not be realigned
};

}  // namespace csxa::dsp

#endif  // CSXA_DSP_BLOCKFILE_H_
