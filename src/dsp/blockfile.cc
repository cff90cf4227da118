#include "dsp/blockfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace csxa::dsp {

// ---------------------------------------------------------------------------
// PosixEnv

namespace {

class PosixFile : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<Bytes> ReadAt(uint64_t offset, size_t n) const override {
    Bytes out(n);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, out.data() + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pread: ") + std::strerror(errno));
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    out.resize(got);
    return out;
  }

  Status Append(Span data) override {
    size_t put = 0;
    while (put < data.size()) {
      ssize_t r = ::write(fd_, data.data() + put, data.size() - put);
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("write: ") + std::strerror(errno));
      }
      put += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Span data) override {
    size_t put = 0;
    while (put < data.size()) {
      ssize_t r = ::pwrite(fd_, data.data() + put, data.size() - put,
                           static_cast<off_t>(offset + put));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
      }
      put += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IoError(std::string("ftruncate: ") +
                             std::strerror(errno));
    }
    // The write cursor used by Append must not be left past the new end.
    if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
      return Status::IoError(std::string("lseek: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError(std::string("fstat: ") + std::strerror(errno));
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

}  // namespace

Result<std::unique_ptr<File>> PosixEnv::Open(const std::string& path,
                                             bool create) {
  int flags = O_RDWR | O_APPEND;
  if (create) flags |= O_CREAT;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<File>(new PosixFile(fd));
}

bool PosixEnv::Exists(const std::string& path) const {
  return ::access(path.c_str(), F_OK) == 0;
}

Status PosixEnv::Remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return Status::IoError("unlink " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status PosixEnv::SyncDir(const std::string& path) {
  int fd = ::open(path.empty() ? "." : path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir " + path + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync dir " + path + ": " + std::strerror(saved));
  }
  return Status::OK();
}

Result<Bytes> PosixEnv::RandomBytes(size_t n) {
  Bytes out(n);
  size_t got = 0;
  while (got < n) {
    size_t chunk = std::min<size_t>(n - got, 256);  // getentropy's limit
    if (::getentropy(out.data() + got, chunk) == 0) {
      got += chunk;
      continue;
    }
    // Fall back to /dev/urandom (e.g. older kernels without the syscall).
    int fd = ::open("/dev/urandom", O_RDONLY);
    if (fd < 0) {
      return Status::IoError(std::string("no entropy source: ") +
                             std::strerror(errno));
    }
    while (got < n) {
      ssize_t r = ::read(fd, out.data() + got, n - got);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        ::close(fd);
        return Status::IoError("read /dev/urandom failed");
      }
      got += static_cast<size_t>(r);
    }
    ::close(fd);
  }
  return out;
}

Status PosixEnv::CreateDir(const std::string& path) {
  // mkdir -p: create each prefix component, tolerating existing ones.
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      std::string prefix = path.substr(0, i);
      if (prefix.empty()) continue;
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::IoError("mkdir " + prefix + ": " +
                               std::strerror(errno));
      }
    }
  }
  return Status::OK();
}

PosixEnv* PosixEnv::Default() {
  static PosixEnv* env = new PosixEnv();  // intentionally leaked
  return env;
}

// ---------------------------------------------------------------------------
// MemEnv

class MemFile : public File {
 public:
  MemFile(MemEnv* env, std::shared_ptr<Bytes> bytes)
      : env_(env), bytes_(std::move(bytes)) {}

  Result<Bytes> ReadAt(uint64_t offset, size_t n) const override;
  Status Append(Span data) override;
  Status WriteAt(uint64_t offset, Span data) override;
  Status Truncate(uint64_t size) override;
  Status Sync() override { return Status::OK(); }
  Result<uint64_t> Size() const override;

 private:
  MemEnv* env_;
  std::shared_ptr<Bytes> bytes_;
};

Result<Bytes> MemFile::ReadAt(uint64_t offset, size_t n) const {
  std::lock_guard<std::mutex> lock(env_->mu_);
  if (offset >= bytes_->size()) return Bytes{};
  size_t avail = bytes_->size() - static_cast<size_t>(offset);
  size_t take = std::min(n, avail);
  return Bytes(bytes_->begin() + static_cast<size_t>(offset),
               bytes_->begin() + static_cast<size_t>(offset) + take);
}

Status MemFile::Append(Span data) {
  std::lock_guard<std::mutex> lock(env_->mu_);
  bytes_->insert(bytes_->end(), data.data(), data.data() + data.size());
  return Status::OK();
}

Status MemFile::WriteAt(uint64_t offset, Span data) {
  std::lock_guard<std::mutex> lock(env_->mu_);
  if (offset + data.size() > bytes_->size()) {
    bytes_->resize(static_cast<size_t>(offset) + data.size(), 0);
  }
  std::memcpy(bytes_->data() + static_cast<size_t>(offset), data.data(),
              data.size());
  return Status::OK();
}

Status MemFile::Truncate(uint64_t size) {
  std::lock_guard<std::mutex> lock(env_->mu_);
  if (size < bytes_->size()) bytes_->resize(static_cast<size_t>(size));
  return Status::OK();
}

Result<uint64_t> MemFile::Size() const {
  std::lock_guard<std::mutex> lock(env_->mu_);
  return static_cast<uint64_t>(bytes_->size());
}

Result<std::unique_ptr<File>> MemEnv::Open(const std::string& path,
                                           bool create) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) return Status::IoError("mem file not found: " + path);
    it = files_.emplace(path, std::make_shared<Bytes>()).first;
  }
  return std::unique_ptr<File>(new MemFile(this, it->second));
}

bool MemEnv::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status MemEnv::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::IoError("mem file not found: " + path);
  }
  return Status::OK();
}

Result<Bytes> MemEnv::RandomBytes(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  Bytes out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(entropy_.Next());
  return out;
}

Result<Bytes> MemEnv::Snapshot(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IoError("mem file not found: " + path);
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// FaultyEnv

class FaultyFile : public File {
 public:
  FaultyFile(FaultyEnv* env, std::unique_ptr<File> base)
      : env_(env), base_(std::move(base)) {}

  Result<Bytes> ReadAt(uint64_t offset, size_t n) const override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    return base_->ReadAt(offset, n);
  }

  Status Append(Span data) override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    if (env_->MutationDies()) {
      // The torn tail of a dying append: a prefix of the payload reaches
      // the platter before the power does.
      size_t torn = std::min(env_->torn_tail(), data.size());
      if (torn > 0) base_->Append(data.subspan(0, torn));
      return Status::IoError("disk: crash during append");
    }
    return base_->Append(data);
  }

  Status WriteAt(uint64_t offset, Span data) override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    if (env_->MutationDies()) return Status::IoError("disk: crash");
    return base_->WriteAt(offset, data);
  }

  Status Truncate(uint64_t size) override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    if (env_->MutationDies()) return Status::IoError("disk: crash");
    return base_->Truncate(size);
  }

  Status Sync() override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    if (env_->MutationDies()) return Status::IoError("disk: crash");
    return base_->Sync();
  }

  Result<uint64_t> Size() const override {
    if (env_->crashed()) return Status::IoError("disk: process crashed");
    return base_->Size();
  }

 private:
  FaultyEnv* env_;
  std::unique_ptr<File> base_;
};

FaultyEnv::FaultyEnv(Env* base, DiskFaultPlan plan)
    : base_(base), plan_(std::move(plan)) {
  crash_at_ = plan_.crash_at_write_point;
  torn_tail_ = plan_.torn_tail_bytes;
}

Result<std::unique_ptr<File>> FaultyEnv::Open(const std::string& path,
                                              bool create) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IoError("disk: process crashed");
  }
  CSXA_ASSIGN_OR_RETURN(std::unique_ptr<File> file, base_->Open(path, create));
  // Scripted at-rest corruption lands when the file is next opened: the
  // damage happened "while the process was away".
  std::vector<DiskFaultPlan::BitFlip> flips;
  std::vector<DiskFaultPlan::TruncateAt> cuts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = plan_.bit_flips.begin(); it != plan_.bit_flips.end();) {
      if (path.find(it->path_substring) != std::string::npos) {
        flips.push_back(*it);
        it = plan_.bit_flips.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = plan_.truncates.begin(); it != plan_.truncates.end();) {
      if (path.find(it->path_substring) != std::string::npos) {
        cuts.push_back(*it);
        it = plan_.truncates.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& flip : flips) {
    CSXA_ASSIGN_OR_RETURN(Bytes byte, file->ReadAt(flip.offset, 1));
    if (byte.size() == 1) {
      byte[0] ^= flip.mask;
      CSXA_RETURN_IF_ERROR(file->WriteAt(flip.offset, byte));
    }
  }
  for (const auto& cut : cuts) {
    CSXA_RETURN_IF_ERROR(file->Truncate(cut.size));
  }
  return std::unique_ptr<File>(new FaultyFile(this, std::move(file)));
}

bool FaultyEnv::Exists(const std::string& path) const {
  return base_->Exists(path);
}

Status FaultyEnv::Remove(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IoError("disk: process crashed");
  }
  if (MutationDies()) return Status::IoError("disk: crash");
  return base_->Remove(path);
}

Status FaultyEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

Status FaultyEnv::SyncDir(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IoError("disk: process crashed");
  }
  if (MutationDies()) return Status::IoError("disk: crash");
  return base_->SyncDir(path);
}

Result<Bytes> FaultyEnv::RandomBytes(size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::IoError("disk: process crashed");
  }
  return base_->RandomBytes(n);
}

void FaultyEnv::ArmCrash(uint64_t after, size_t torn_tail_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_at_ = writes_ + after;
  torn_tail_ = torn_tail_bytes;
  dead_ = false;
}

void FaultyEnv::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = false;
  crash_at_ = UINT64_MAX;
  torn_tail_ = 0;
}

bool FaultyEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

uint64_t FaultyEnv::write_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

bool FaultyEnv::MutationDies() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t index = writes_++;
  if (index >= crash_at_) {
    dead_ = true;
    return true;
  }
  return false;
}

size_t FaultyEnv::torn_tail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_tail_;
}

// ---------------------------------------------------------------------------
// BlockLog

Result<BlockLog> BlockLog::Open(Env* env, std::string dir,
                                crypto::SymmetricKey key,
                                std::string store_id, size_t segment_bytes,
                                uint64_t* torn_tail_bytes) {
  BlockLog log;
  log.env_ = env;
  log.dir_ = std::move(dir);
  log.cipher_ = crypto::BlockCipher(key);
  log.store_id_ = std::move(store_id);
  log.blocks_per_segment_ =
      std::max<uint64_t>(1, segment_bytes / crypto::kSealedBlockSize);
  if (torn_tail_bytes != nullptr) *torn_tail_bytes = 0;

  // Discover existing segments: seq 0, 1, 2, ... until a gap.
  uint64_t seq = 0;
  while (env->Exists(log.SegmentPath(seq))) ++seq;
  if (seq > 0) {
    uint64_t last = seq - 1;
    CSXA_ASSIGN_OR_RETURN(File * file, log.SegmentFor(last *
                                                      log.blocks_per_segment_,
                                                      /*create=*/false));
    CSXA_ASSIGN_OR_RETURN(uint64_t size, file->Size());
    uint64_t torn = size % crypto::kSealedBlockSize;
    if (torn != 0) {
      // A torn final write: the partial block never committed anywhere.
      CSXA_RETURN_IF_ERROR(file->Truncate(size - torn));
      if (torn_tail_bytes != nullptr) *torn_tail_bytes = torn;
      size -= torn;
    }
    log.block_count_ = last * log.blocks_per_segment_ +
                       size / crypto::kSealedBlockSize;
  }
  return log;
}

std::string BlockLog::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "data-%06llu.seg",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Result<File*> BlockLog::SegmentFor(uint64_t index, bool create) const {
  uint64_t seq = index / blocks_per_segment_;
  auto it = segments_.find(seq);
  if (it == segments_.end()) {
    const std::string path = SegmentPath(seq);
    const bool fresh = create && !env_->Exists(path);
    auto opened = env_->Open(path, create);
    if (!opened.ok()) return opened.status();
    if (fresh) {
      // The directory entry must be durable before any manifest record can
      // name blocks in this segment — fsyncing the file alone does not
      // persist its dirent on a real filesystem.
      Status synced = env_->SyncDir(dir_);
      if (!synced.ok()) return synced;
    }
    it = segments_.emplace(seq, std::move(opened).value()).first;
  }
  return it->second.get();
}

Result<uint64_t> BlockLog::AppendBlock(Span payload,
                                       crypto::NonceSequence* nonces) {
  if (poisoned_) {
    return Status::IoError(
        "block log poisoned: an earlier failed append could not be "
        "realigned");
  }
  uint64_t index = block_count_;
  CSXA_ASSIGN_OR_RETURN(File * file, SegmentFor(index, /*create=*/true));
  Bytes sealed =
      crypto::SealBlock(*cipher_, store_id_, index, payload, nonces);
  Status appended = file->Append(sealed);
  if (!appended.ok()) {
    // A partial append (e.g. ENOSPC midway) leaves a misaligned tail that
    // would shift every later block off its frame boundary; cut back to
    // the last whole block, or refuse to continue at all.
    uint64_t keep = (index % blocks_per_segment_) * crypto::kSealedBlockSize;
    if (!file->Truncate(keep).ok()) poisoned_ = true;
    return appended;
  }
  ++block_count_;
  uint64_t seq = index / blocks_per_segment_;
  if (dirty_.empty() || dirty_.back() != seq) dirty_.push_back(seq);
  return index;
}

Result<Bytes> BlockLog::ReadBlock(uint64_t index) const {
  if (index >= block_count_) {
    return Status::IntegrityError("block " + std::to_string(index) +
                                  " out of range (truncated store?)");
  }
  CSXA_ASSIGN_OR_RETURN(File * file, SegmentFor(index, /*create=*/false));
  uint64_t offset =
      (index % blocks_per_segment_) * crypto::kSealedBlockSize;
  CSXA_ASSIGN_OR_RETURN(Bytes sealed,
                        file->ReadAt(offset, crypto::kSealedBlockSize));
  return crypto::OpenBlock(*cipher_, store_id_, index, sealed);
}

Status BlockLog::Sync() {
  for (uint64_t seq : dirty_) {
    CSXA_ASSIGN_OR_RETURN(
        File * file,
        SegmentFor(seq * blocks_per_segment_, /*create=*/false));
    CSXA_RETURN_IF_ERROR(file->Sync());
  }
  dirty_.clear();
  return Status::OK();
}

Status BlockLog::TruncateBlocks(uint64_t count) {
  if (count >= block_count_) return Status::OK();
  uint64_t keep_segments = (count + blocks_per_segment_ - 1) /
                           blocks_per_segment_;
  uint64_t have_segments = (block_count_ + blocks_per_segment_ - 1) /
                           blocks_per_segment_;
  // Delete whole segments past the keep point.
  bool removed_any = false;
  for (uint64_t seq = keep_segments == 0 ? (count > 0 ? keep_segments : 0)
                                         : keep_segments;
       seq < have_segments; ++seq) {
    segments_.erase(seq);
    if (env_->Exists(SegmentPath(seq))) {
      CSXA_RETURN_IF_ERROR(env_->Remove(SegmentPath(seq)));
      removed_any = true;
    }
  }
  if (removed_any) CSXA_RETURN_IF_ERROR(env_->SyncDir(dir_));
  // Trim the now-last segment to the surviving block count.
  if (count > 0) {
    uint64_t last_seq = (count - 1) / blocks_per_segment_;
    uint64_t keep_in_last = count - last_seq * blocks_per_segment_;
    CSXA_ASSIGN_OR_RETURN(
        File * file,
        SegmentFor(last_seq * blocks_per_segment_, /*create=*/false));
    CSXA_RETURN_IF_ERROR(
        file->Truncate(keep_in_last * crypto::kSealedBlockSize));
  }
  block_count_ = count;
  dirty_.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ManifestLog

Result<ManifestLog> ManifestLog::Open(Env* env, std::string path,
                                      crypto::SymmetricKey key,
                                      std::string store_id,
                                      ManifestScan* scan) {
  ManifestLog log;
  log.env_ = env;
  log.path_ = std::move(path);
  log.cipher_ = crypto::BlockCipher(key);
  log.store_id_ = std::move(store_id) + "#manifest";
  const bool fresh = !env->Exists(log.path_);
  CSXA_ASSIGN_OR_RETURN(log.file_, env->Open(log.path_, /*create=*/true));
  if (fresh) {
    // Make the MANIFEST dirent itself durable before the store commits
    // anything through it.
    size_t slash = log.path_.rfind('/');
    CSXA_RETURN_IF_ERROR(env->SyncDir(
        slash == std::string::npos ? std::string(".")
                                   : log.path_.substr(0, slash)));
  }

  ManifestScan out;
  CSXA_ASSIGN_OR_RETURN(uint64_t size, log.file_->Size());
  const uint64_t frames = size / kManifestRecordSize;
  const uint64_t partial = size % kManifestRecordSize;

  // Open every full frame; find the end of the valid prefix.
  std::vector<Bytes> payloads;
  uint64_t valid_prefix = 0;
  bool prefix_broken = false;
  for (uint64_t i = 0; i < frames; ++i) {
    CSXA_ASSIGN_OR_RETURN(
        Bytes frame,
        log.file_->ReadAt(i * kManifestRecordSize, kManifestRecordSize));
    auto opened = crypto::OpenBlock(*log.cipher_, log.store_id_, i, frame,
                                    kManifestRecordSize);
    if (opened.ok() && !prefix_broken) {
      payloads.push_back(std::move(opened).value());
      valid_prefix = i + 1;
    } else if (opened.ok() && prefix_broken) {
      // A valid record AFTER an invalid one: no crash produces a hole in
      // an append-fsync log — this is tampering with the history.
      return Status::IntegrityError(
          "manifest record " + std::to_string(valid_prefix) +
          " invalid but record " + std::to_string(i) +
          " verifies: interior manifest tampering");
    } else {
      prefix_broken = true;
    }
  }
  const uint64_t invalid_frames = frames - valid_prefix;
  if (invalid_frames > 1) {
    // One torn frame is what a single interrupted append leaves; several
    // unreadable frames in a row cannot be a crash artifact.
    return Status::IntegrityError(
        std::to_string(invalid_frames) +
        " trailing manifest records fail authentication: tampering");
  }
  out.torn_tail_records = invalid_frames;
  out.torn_tail_bytes = invalid_frames * kManifestRecordSize + partial;
  if (out.torn_tail_bytes > 0) {
    CSXA_RETURN_IF_ERROR(
        log.file_->Truncate(valid_prefix * kManifestRecordSize));
  }
  out.records = std::move(payloads);
  log.next_seq_ = valid_prefix;
  if (scan != nullptr) *scan = std::move(out);
  return log;
}

Status ManifestLog::Append(Span payload, crypto::NonceSequence* nonces) {
  CSXA_CHECK(payload.size() <= kManifestPayloadCapacity);
  if (poisoned_) {
    return Status::IoError(
        "manifest log poisoned: an earlier failed append could not be "
        "realigned");
  }
  Bytes sealed = crypto::SealBlock(*cipher_, store_id_, next_seq_, payload,
                                   nonces, kManifestRecordSize);
  Status result = file_->Append(sealed);
  if (result.ok()) result = file_->Sync();
  if (!result.ok()) {
    // The record did not commit. A partial append (or a full one that
    // never reached the platter) must not stay under the write cursor, or
    // every later record lands misaligned and fails authentication while
    // the in-process store believes it is healthy.
    if (!file_->Truncate(next_seq_ * kManifestRecordSize).ok()) {
      poisoned_ = true;
    }
    return result;
  }
  ++next_seq_;
  return Status::OK();
}

}  // namespace csxa::dsp
