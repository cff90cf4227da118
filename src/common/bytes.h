#ifndef CSXA_COMMON_BYTES_H_
#define CSXA_COMMON_BYTES_H_

/// \file bytes.h
/// \brief Byte-slice and growable byte-buffer primitives.
///
/// Bytes is the canonical owned byte container; Span is a non-owning view.
/// Both are used for encrypted payloads, APDU frames and index encodings.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace csxa {

/// Owned, contiguous byte storage.
using Bytes = std::vector<uint8_t>;

/// \brief Non-owning view over a contiguous byte range.
///
/// Mirrors rocksdb::Slice: the viewed storage must outlive the Span.
class Span {
 public:
  /// Empty view.
  Span() : data_(nullptr), size_(0) {}
  /// View over [data, data+size).
  Span(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  /// View over the full contents of an owned buffer.
  Span(const Bytes& b) : data_(b.data()), size_(b.size()) {}  // NOLINT
  /// View over the bytes of a string (no copy).
  explicit Span(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Sub-view of `len` bytes starting at `off`; clamped to bounds.
  Span subspan(size_t off, size_t len = SIZE_MAX) const {
    if (off > size_) off = size_;
    size_t n = size_ - off;
    if (len < n) n = len;
    return Span(data_ + off, n);
  }

  /// Copies the viewed bytes into an owned buffer.
  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }
  /// Copies the viewed bytes into a std::string.
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  /// Byte-wise equality.
  bool operator==(const Span& o) const {
    return size_ == o.size_ &&
           (size_ == 0 || std::memcmp(data_, o.data_, size_) == 0);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

/// \brief Append-only writer over an owned Bytes buffer.
///
/// Provides fixed-width little-endian integer encoders used by the document
/// container format, the skip index and the applet's command payloads.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Appends a single byte.
  void PutU8(uint8_t v) { buf_.push_back(v); }
  /// Appends a 16-bit little-endian integer.
  void PutU16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }
  /// Appends a 32-bit little-endian integer.
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// Appends a 64-bit little-endian integer.
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// Appends raw bytes.
  void PutBytes(Span s) { buf_.insert(buf_.end(), s.data(), s.data() + s.size()); }
  /// Appends a length-prefixed (u32) byte string.
  void PutLengthPrefixed(Span s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }
  /// Appends a length-prefixed (u32) UTF-8 string.
  void PutString(const std::string& s) { PutLengthPrefixed(Span(s)); }

  /// Current number of bytes written.
  size_t size() const { return buf_.size(); }
  /// Borrow the underlying buffer.
  const Bytes& bytes() const { return buf_; }
  /// Move the underlying buffer out; the writer is left empty.
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// \brief Cursor-based reader over a Span with bounds-checked decoders.
///
/// Each Get* returns false on underflow, leaving the cursor unchanged so
/// callers can surface a ParseError.
class ByteReader {
 public:
  explicit ByteReader(Span s) : span_(s), pos_(0) {}

  /// Bytes remaining past the cursor.
  size_t remaining() const { return span_.size() - pos_; }
  /// Current cursor offset.
  size_t position() const { return pos_; }
  /// True when the cursor is at the end.
  bool AtEnd() const { return pos_ == span_.size(); }
  /// Advances the cursor by `n` bytes; returns false on underflow.
  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = span_[pos_++];
    return true;
  }
  bool GetU16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<uint16_t>(span_[pos_]) |
         static_cast<uint16_t>(span_[pos_ + 1]) << 8;
    pos_ += 2;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(span_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(span_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  /// Reads `n` raw bytes as a sub-view (no copy).
  bool GetBytes(size_t n, Span* out) {
    if (remaining() < n) return false;
    *out = span_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  /// Reads a u32 length-prefixed byte string as a sub-view.
  bool GetLengthPrefixed(Span* out) {
    size_t save = pos_;
    uint32_t n;
    if (!GetU32(&n) || remaining() < n) {
      pos_ = save;
      return false;
    }
    *out = span_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  /// Reads a u32 length-prefixed UTF-8 string (copies).
  bool GetString(std::string* out) {
    Span s;
    if (!GetLengthPrefixed(&s)) return false;
    *out = s.ToString();
    return true;
  }

 private:
  Span span_;
  size_t pos_;
};

}  // namespace csxa

#endif  // CSXA_COMMON_BYTES_H_
