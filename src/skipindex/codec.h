#ifndef CSXA_SKIPINDEX_CODEC_H_
#define CSXA_SKIPINDEX_CODEC_H_

/// \file codec.h
/// \brief The indexed binary document format (§2.3 "skip index").
///
/// Layout (all of it is encrypted inside the secure container):
///
///   header   := magic(0xD0) flags tag_dict attr_dict token*
///   token    := OPEN | VALUE | CLOSE
///   OPEN     := 0x01 tag_id:varint nattrs:varint attr* meta?
///   attr     := name_id:varint len:varint bytes
///   meta     := content_size:varint mflags:u8 bitmap?      (flags bit0)
///   VALUE    := 0x02 len:varint bytes
///   CLOSE    := 0x03
///
/// `content_size` is the byte length of all tokens strictly between this
/// OPEN token and its matching CLOSE — skipping that many bytes lands the
/// cursor exactly on the CLOSE token. `bitmap` encodes the set of tags of
/// strict descendants. With recursive compression (flags bit1, the paper's
/// scheme) the bitmap has one bit per tag *present in the parent's
/// subtree* (root: per dictionary entry); without it, every bitmap spans
/// the whole dictionary — the ablation baseline for EXP-IDXSZ. `mflags`
/// bit0 says the subtree contains elements (no bitmap stored otherwise),
/// bit1 that it contains text.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/interner.h"
#include "common/status.h"
#include "skipindex/byte_source.h"
#include "xml/dom.h"
#include "xml/event.h"

namespace csxa::skipindex {

/// Encoder options.
struct EncodeOptions {
  /// Embed the skip index (content sizes + tag bitmaps).
  bool with_index = true;
  /// Use the paper's recursive bitmap compression (vs full-width bitmaps).
  bool recursive_bitmaps = true;
};

/// Byte-level breakdown of an encoded document (drives EXP-IDXSZ).
struct EncodeStats {
  size_t total_bytes = 0;
  size_t dict_bytes = 0;
  size_t structure_bytes = 0;  // OPEN/CLOSE tokens, tag ids, attributes
  size_t text_bytes = 0;       // VALUE tokens
  size_t index_size_bytes = 0; // content_size varints + mflags
  size_t index_bitmap_bytes = 0;
  size_t element_count = 0;

  /// Index overhead as a fraction of the document without index.
  double IndexOverhead() const {
    size_t base = total_bytes - index_size_bytes - index_bitmap_bytes;
    if (base == 0) return 0.0;
    return static_cast<double>(index_size_bytes + index_bitmap_bytes) /
           static_cast<double>(base);
  }
};

/// Encodes a DOM document into the binary format.
Result<Bytes> EncodeDocument(const xml::DomDocument& doc,
                             const EncodeOptions& options,
                             EncodeStats* stats = nullptr);

/// \brief Maps encoded-payload byte offsets onto container chunk indices.
///
/// The secure container splits the encoded document into fixed-size
/// chunks (the last possibly short) and AES-CTR preserves byte positions,
/// so plaintext offset `o` lives in chunk `o / chunk_size` — this class
/// is that arithmetic plus the coalescing that turns the byte ranges a
/// scan touches into the minimal sorted list of contiguous chunk runs
/// (the shape a multi-span kGetChunks request wants).
class ChunkMap {
 public:
  /// `chunk_size` must be non-zero; `chunk_count` clamps every result to
  /// the container geometry (ranges beyond it are truncated, not errors —
  /// the planner must never fabricate unfetchable chunks).
  ChunkMap(uint32_t chunk_size, uint32_t chunk_count)
      : chunk_size_(chunk_size == 0 ? 1 : chunk_size),
        chunk_count_(chunk_count) {}

  /// Chunk index containing byte offset `offset`.
  uint32_t ChunkOf(uint64_t offset) const {
    return static_cast<uint32_t>(offset / chunk_size_);
  }

  /// Coalesces byte ranges (any order, possibly overlapping) into sorted,
  /// disjoint chunk runs; adjacent runs merge (both chunks are needed, so
  /// a single span covers them for free).
  std::vector<ChunkRun> Runs(const std::vector<ByteRange>& ranges) const;

 private:
  uint32_t chunk_size_;
  uint32_t chunk_count_;
};

/// \brief Streaming decoder over a ByteSource.
///
/// Pull API mirroring the event model; after an OPEN the caller may call
/// SkipContent() to jump to the matching CLOSE without touching the
/// subtree's bytes (the skip decision itself is the evaluator's).
class DocumentDecoder {
 public:
  /// Reads and validates the header and dictionaries.
  static Result<std::unique_ptr<DocumentDecoder>> Open(ByteSource* source);

  /// Pulls the next event as a borrowed view — the SOE's zero-copy fast
  /// path. Tag and attribute names borrow from the decoder's dictionaries
  /// (stable for its lifetime); text borrows straight from the source's
  /// byte window when it lies inside it, falling back to a reused scratch
  /// buffer otherwise; attribute values land in reused scratch. Everything
  /// except the dictionary names is invalidated by the next
  /// Next()/NextView() call.
  Result<xml::EventView> NextView();

  /// Owning convenience: NextView() materialized. Returns kEnd exactly
  /// once at end of stream.
  Result<xml::Event> Next();

  /// True if the format embeds the skip index.
  bool has_index() const { return with_index_; }

  /// \name Metadata of the most recent OPEN event
  /// @{
  /// Content byte size (0 when no index).
  uint64_t last_content_size() const { return last_content_size_; }
  /// Whether the subtree contains elements / text.
  bool last_has_elements() const { return last_has_elements_; }
  bool last_has_text() const { return last_has_text_; }
  /// Membership test over the subtree's tag set (false without index).
  bool SubtreeHasTag(std::string_view tag) const;
  /// @}

  /// Skips the content of the element just opened; the next event will be
  /// its CLOSE. Only legal immediately after an OPEN, with the index on.
  Status SkipContent();

  /// Tag dictionary (exposed for the SOE's RAM accounting).
  const Interner& tags() const { return tag_dict_; }
  const Interner& attrs() const { return attr_dict_; }

  /// Modeled decoder RAM: dictionaries plus the ancestor tag-set stack
  /// (2 bytes per open element and per tag-set entry). O(1): every term
  /// is a running total.
  size_t ModeledBytes() const {
    return tag_dict_.ModeledBytes() + attr_dict_.ModeledBytes() +
           2 * (open_.size() + tagset_ids_.size());
  }
  /// ModeledBytes() recomputed from scratch by walking the dictionaries
  /// and every open level: the differential check for the running total.
  size_t RecountModeledBytes() const;

 private:
  DocumentDecoder() = default;

  // One open element: its tag id and where its subtree tag set begins in
  // tagset_ids_ (it runs to the next level's begin, or to the end).
  struct OpenLevel {
    uint32_t tag_id;
    size_t set_begin;
  };

  // Both read from the source's byte window and call into the source only
  // at the window's edge.
  Status ReadVarint(uint64_t* v);
  Status ReadByte(uint8_t* b) {
    if (source_->window_size() > 0) {
      *b = *source_->window();
      source_->Consume(1);
      return Status::OK();
    }
    return source_->ReadExact(b, 1);
  }
  Status ReadVarintSlow(uint64_t* v);
  // Reads the OPEN's subtree bitmap and pushes the decoded tag set.
  Status ReadTagSet();
  Result<std::string> ReadString();
  // Borrowed read of a length-prefixed string. With `borrow` the bytes
  // may alias the source's byte window (only safe for the last read of an
  // event); otherwise they are copied into `scratch`.
  Result<std::string_view> ReadStringView(bool borrow, std::string* scratch);

  ByteSource* source_ = nullptr;
  Interner tag_dict_;
  Interner attr_dict_;
  bool with_index_ = false;
  bool recursive_ = false;
  bool done_ = false;
  bool root_closed_ = false;
  bool just_opened_ = false;
  std::vector<OpenLevel> open_;

  uint64_t last_content_size_ = 0;
  bool last_has_elements_ = false;
  bool last_has_text_ = false;

  // Flat stack of subtree tag sets (sorted tag-id lists), one per open
  // element, concatenated; the innermost set is the tail from
  // open_.back().set_begin. The root's base is the full dictionary.
  std::vector<uint32_t> tagset_ids_;

  // Per-event borrowed storage (NextView), reused across events so the
  // steady-state decode loop performs no allocation. attr_vals_ never
  // shrinks: views into its strings stay valid while attr_views_ is
  // (re)built within one event. bitmap_scratch_ holds a subtree bitmap
  // that straddles the source's window edge.
  std::vector<xml::AttrView> attr_views_;
  std::vector<std::string> attr_vals_;
  std::string text_scratch_;
  std::vector<uint8_t> bitmap_scratch_;
};

}  // namespace csxa::skipindex

#endif  // CSXA_SKIPINDEX_CODEC_H_
