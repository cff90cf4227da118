#ifndef CSXA_SKIPINDEX_BYTE_SOURCE_H_
#define CSXA_SKIPINDEX_BYTE_SOURCE_H_

/// \file byte_source.h
/// \brief Sequential byte input with cheap forward skips.
///
/// The document decoder pulls plaintext bytes through this interface. The
/// SOE's implementation (soe/chunk_source.h) fetches, verifies and decrypts
/// container chunks on demand — and a Skip() that jumps whole chunks avoids
/// both the transfer and the decryption, which is exactly the benefit the
/// skip index exists to harvest (§2.3).

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace csxa::skipindex {

/// \brief A half-open byte interval [begin, end) of the underlying stream.
struct ByteRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// \brief A run of consecutive fixed-size chunks: [first, first + count).
///
/// The chunk-level counterpart of ByteRange; the container layer splits
/// the payload into fixed-size chunks and the fetch planner speaks in
/// these runs (see codec.h ChunkMap and soe::FetchPlan).
struct ChunkRun {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// \brief Abstract sequential source.
///
/// Byte window: a source that already holds the next bytes of the stream
/// contiguously in memory (MemorySource: the rest of its buffer;
/// soe::ChunkSource: the rest of the current decrypted chunk) exposes them
/// as an inline, non-virtual window. A reader consumes from the window
/// with Consume() and calls the virtual ReadExact only at its edge, so a
/// one-byte token or varint costs no virtual call, and bytes inside the
/// window can be borrowed without a copy. Window bytes are part of the
/// stream: consuming them advances position() exactly as a ReadExact of
/// the same bytes would. A source that must observe every read
/// (RangeRecordingSource) exposes no window, which forces readers through
/// its virtual methods. The window, and any pointer into it, is
/// invalidated by the next virtual call on the source — the document
/// decoder therefore only hands borrowed bytes out for one event.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads exactly `n` bytes into `buf`; IoError if the stream ends first.
  virtual Status ReadExact(uint8_t* buf, size_t n) = 0;
  /// Advances the cursor `n` bytes without necessarily materializing them.
  virtual Status Skip(uint64_t n) = 0;
  /// Absolute cursor position.
  virtual uint64_t position() const = 0;
  /// True when the cursor is at the end of the stream.
  virtual bool AtEnd() const = 0;

  /// Bytes readable from the window without a virtual call (0 when the
  /// source exposes none or the window is exhausted).
  size_t window_size() const { return static_cast<size_t>(win_end_ - win_); }
  /// The window's first byte; valid when window_size() > 0.
  const uint8_t* window() const { return win_; }
  /// Consumes `n <= window_size()` window bytes.
  void Consume(size_t n) { win_ += n; }

 protected:
  /// Sets the window to [begin, end); pass nullptrs to expose none.
  void SetWindow(const uint8_t* begin, const uint8_t* end) {
    win_ = begin;
    win_end_ = end;
  }

 private:
  const uint8_t* win_ = nullptr;
  const uint8_t* win_end_ = nullptr;
};

/// \brief In-memory source (tests, terminal-side decoding).
///
/// The window is the rest of the buffer, and it is also the cursor.
class MemorySource : public ByteSource {
 public:
  explicit MemorySource(Span data) : data_(data) {
    SetWindow(data_.data(), data_.data() + data_.size());
  }

  Status ReadExact(uint8_t* buf, size_t n) override {
    if (window_size() < n) {
      return Status::IoError("memory source exhausted");
    }
    std::memcpy(buf, window(), n);
    Consume(n);
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    if (window_size() < n) {
      return Status::IoError("skip past end of memory source");
    }
    Consume(static_cast<size_t>(n));
    return Status::OK();
  }
  uint64_t position() const override {
    return static_cast<uint64_t>(window() - data_.data());
  }
  bool AtEnd() const override { return window_size() == 0; }

 private:
  Span data_;
};

/// \brief Decorator recording which byte ranges are actually *read* (as
/// opposed to skipped) from the inner source.
///
/// The fetch planner's probe: drive the ordinary filtered scan through
/// one of these and the recorded ranges are exactly the bytes — and via
/// the chunk map, exactly the chunks — that scan touches. Skips advance
/// the cursor without recording, which is the whole point: skipped
/// ranges never need fetching. Reads are monotone (sources are forward
/// only), so the recorded ranges come out sorted, disjoint and merged.
/// It exposes no byte window: a read consumed from the inner source's
/// window would bypass the recording.
class RangeRecordingSource : public ByteSource {
 public:
  explicit RangeRecordingSource(ByteSource* inner) : inner_(inner) {}

  Status ReadExact(uint8_t* buf, size_t n) override {
    uint64_t at = inner_->position();
    CSXA_RETURN_IF_ERROR(inner_->ReadExact(buf, n));
    Record(at, n);
    return Status::OK();
  }
  Status Skip(uint64_t n) override { return inner_->Skip(n); }
  uint64_t position() const override { return inner_->position(); }
  bool AtEnd() const override { return inner_->AtEnd(); }

  /// Byte ranges read so far: ascending, disjoint, coalesced.
  const std::vector<ByteRange>& ranges() const { return ranges_; }

 private:
  void Record(uint64_t at, uint64_t n) {
    if (n == 0) return;
    if (!ranges_.empty() && at <= ranges_.back().end) {
      if (at + n > ranges_.back().end) ranges_.back().end = at + n;
    } else {
      ranges_.push_back(ByteRange{at, at + n});
    }
  }

  ByteSource* inner_;
  std::vector<ByteRange> ranges_;
};

}  // namespace csxa::skipindex

#endif  // CSXA_SKIPINDEX_BYTE_SOURCE_H_
