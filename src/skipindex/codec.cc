#include "skipindex/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/varint.h"

namespace csxa::skipindex {

namespace {

constexpr uint8_t kMagic = 0xD0;
constexpr uint8_t kFlagIndex = 0x01;
constexpr uint8_t kFlagRecursive = 0x02;

constexpr uint8_t kTokOpen = 0x01;
constexpr uint8_t kTokValue = 0x02;
constexpr uint8_t kTokClose = 0x03;

constexpr uint8_t kMetaHasElements = 0x01;
constexpr uint8_t kMetaHasText = 0x02;

using xml::DomNode;

// A bounds-checked write cursor over the pre-sized output buffer. A write
// that would pass the end is dropped and marks the cursor overflowed, so a
// sizing bug surfaces as Status::Internal, never as a buffer overrun.
class Cursor {
 public:
  Cursor(uint8_t* begin, uint8_t* end) : p_(begin), end_(end) {}

  void U8(uint8_t v) {
    if (Fits(1)) *p_++ = v;
  }
  void Varint(uint64_t v) {
    if (!Fits(VarintLength(v))) return;
    while (v >= 0x80) {
      *p_++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p_++ = static_cast<uint8_t>(v);
  }
  void Raw(const std::string& s) {
    if (!Fits(s.size())) return;
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

  // True iff every write fitted and the buffer is exactly full.
  bool Complete() const { return !overflow_ && p_ == end_; }

 private:
  bool Fits(size_t n) {
    if (static_cast<size_t>(end_ - p_) >= n) return true;
    overflow_ = true;
    return false;
  }

  uint8_t* p_;
  uint8_t* end_;
  bool overflow_ = false;
};

// Encodes in four passes over flat arrays indexed by element preorder
// number, so every size is known before the single write: (1) intern the
// names, (2) bottom-up subtree tag sets and has-text flags, (3) bottom-up
// byte sizes, (4) one preorder write into the final buffer.
class Encoder {
 public:
  explicit Encoder(const EncodeOptions& opt) : opt_(opt) {}

  Result<Bytes> Encode(const DomNode* root, EncodeStats* stats_out) {
    Collect(root, kNoParent);
    ComputeSets();
    ComputeSizes();

    ByteWriter header;
    header.PutU8(kMagic);
    uint8_t flags = 0;
    if (opt_.with_index) flags |= kFlagIndex;
    if (opt_.recursive_bitmaps) flags |= kFlagRecursive;
    header.PutU8(flags);
    tags_.EncodeTo(&header);
    attrs_.EncodeTo(&header);
    stats_.dict_bytes = header.size() - 2;

    Bytes out = header.Take();
    const size_t header_size = out.size();
    out.resize(header_size + elems_[0].total);
    Cursor cursor(out.data() + header_size, out.data() + out.size());
    next_ = 0;
    Write(root, &cursor);
    if (!cursor.Complete()) {
      return Status::Internal("skip-index encoder size mismatch");
    }
    stats_.element_count = elems_.size();
    stats_.total_bytes = out.size();
    if (stats_out != nullptr) *stats_out = stats_;
    return out;
  }

 private:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  // One element, at its preorder number.
  struct Element {
    const DomNode* node;
    uint32_t parent;
    TagId tag;
    uint32_t set_size = 0;  // tags in the strict-descendant set
    bool has_text = false;  // the subtree holds text
    size_t content = 0;     // content_size: bytes strictly inside
    size_t total = 0;       // bytes from OPEN through CLOSE
  };

  uint64_t* Set(size_t i) { return &sets_[i * words_]; }

  // Pass 1: preorder numbering and name interning (tag, then attribute
  // names, then children: the dictionary order of the format).
  void Collect(const DomNode* n, uint32_t parent) {
    const uint32_t self = static_cast<uint32_t>(elems_.size());
    elems_.push_back(Element{n, parent, tags_.Intern(n->tag())});
    for (const auto& a : n->attrs()) attrs_.Intern(a.name);
    for (const auto& c : n->children()) {
      if (c->is_text()) {
        elems_[self].has_text = true;
      } else {
        Collect(c.get(), self);
      }
    }
  }

  // Pass 2: each element's strict-descendant tag set as a bitset over the
  // dictionary, and whether its subtree holds text. Reverse preorder
  // finishes every child before its parent.
  void ComputeSets() {
    words_ = (tags_.size() + 63) / 64;
    sets_.assign(elems_.size() * words_, 0);
    for (size_t i = elems_.size(); i-- > 0;) {
      Element& e = elems_[i];
      const uint64_t* own = Set(i);
      for (size_t w = 0; w < words_; ++w) e.set_size += std::popcount(own[w]);
      if (e.parent == kNoParent) continue;
      uint64_t* up = Set(e.parent);
      for (size_t w = 0; w < words_; ++w) up[w] |= own[w];
      up[e.tag / 64] |= uint64_t{1} << (e.tag % 64);
      elems_[e.parent].has_text |= e.has_text;
    }
  }

  // Bitmap bytes of `e`: one bit per tag of its parent's set
  // (recursive mode) or per dictionary entry (flat mode, and the root).
  size_t BitmapBytes(const Element& e) const {
    size_t width = opt_.recursive_bitmaps && e.parent != kNoParent
                       ? elems_[e.parent].set_size
                       : tags_.size();
    return (width + 7) / 8;
  }

  // Pass 3: content and total byte sizes, bottom-up, plus the stats
  // breakdown. A child's total is added into its parent's content before
  // the parent is reached.
  void ComputeSizes() {
    for (size_t i = elems_.size(); i-- > 0;) {
      Element& e = elems_[i];
      const DomNode* node = e.node;
      size_t open = 1 + VarintLength(e.tag) +
                    VarintLength(node->attrs().size());
      for (const auto& a : node->attrs()) {
        open += VarintLength(attrs_.Lookup(a.name)) +
                VarintLength(a.value.size()) + a.value.size();
      }
      stats_.structure_bytes += open + 1;  // +1 for CLOSE
      for (const auto& c : node->children()) {
        if (!c->is_text()) continue;
        const size_t len = c->text().size();
        const size_t value = 1 + VarintLength(len) + len;
        stats_.text_bytes += value;
        e.content += value;
      }
      size_t meta = 0;
      if (opt_.with_index) {
        size_t sizes = VarintLength(e.content) + 1;  // + mflags
        size_t bitmap = e.set_size > 0 ? BitmapBytes(e) : 0;
        stats_.index_size_bytes += sizes;
        stats_.index_bitmap_bytes += bitmap;
        meta = sizes + bitmap;
      }
      e.total = open + meta + e.content + 1;
      if (e.parent != kNoParent) elems_[e.parent].content += e.total;
    }
  }

  // Pass 4: the preorder write. Elements are renumbered in the same order
  // Collect numbered them.
  void Write(const DomNode* n, Cursor* out) {
    const size_t i = next_++;
    const Element& e = elems_[i];
    out->U8(kTokOpen);
    out->Varint(e.tag);
    out->Varint(n->attrs().size());
    for (const auto& a : n->attrs()) {
      out->Varint(attrs_.Lookup(a.name));
      out->Varint(a.value.size());
      out->Raw(a.value);
    }
    if (opt_.with_index) {
      out->Varint(e.content);
      uint8_t mflags = 0;
      if (e.set_size > 0) mflags |= kMetaHasElements;
      if (e.has_text) mflags |= kMetaHasText;
      out->U8(mflags);
      if (e.set_size > 0) WriteBitmap(i, out);
    }
    for (const auto& c : n->children()) {
      if (c->is_text()) {
        out->U8(kTokValue);
        out->Varint(c->text().size());
        out->Raw(c->text());
      } else {
        Write(c.get(), out);
      }
    }
    out->U8(kTokClose);
  }

  void WriteBitmap(size_t i, Cursor* out) {
    const Element& e = elems_[i];
    const uint64_t* own = Set(i);
    const size_t nbytes = BitmapBytes(e);
    if (!opt_.recursive_bitmaps || e.parent == kNoParent) {
      // Bit `id` of the dictionary-wide bitmap is bit `id` of the set:
      // the set's words, little-endian.
      for (size_t b = 0; b < nbytes; ++b) {
        out->U8(static_cast<uint8_t>(own[b / 8] >> (8 * (b % 8))));
      }
      return;
    }
    // Bit k says whether the parent's k-th tag (ascending id) is in the
    // element's own set.
    const uint64_t* base = Set(e.parent);
    uint8_t byte = 0;
    size_t k = 0;
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = base[w]; bits != 0; bits &= bits - 1) {
        int bit = std::countr_zero(bits);
        if ((own[w] >> bit) & 1) byte |= static_cast<uint8_t>(1u << (k % 8));
        if (++k % 8 == 0) {
          out->U8(byte);
          byte = 0;
        }
      }
    }
    if (k % 8 != 0) out->U8(byte);
  }

  const EncodeOptions& opt_;
  Interner tags_;
  Interner attrs_;
  EncodeStats stats_;
  size_t words_ = 0;
  size_t next_ = 0;
  std::vector<Element> elems_;  // by preorder number
  std::vector<uint64_t> sets_;  // words_ per element, same order
};

}  // namespace

Result<Bytes> EncodeDocument(const xml::DomDocument& doc,
                             const EncodeOptions& options, EncodeStats* stats) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("cannot encode an empty document");
  }
  return Encoder(options).Encode(doc.root(), stats);
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

Status DocumentDecoder::ReadVarint(uint64_t* v) {
  // Fast path: the whole varint lies inside the window.
  const uint8_t* p = source_->window();
  size_t avail = source_->window_size();
  uint64_t result = 0;
  for (size_t i = 0; i < avail && i < 10; ++i) {
    result |= static_cast<uint64_t>(p[i] & 0x7f) << (7 * i);
    if ((p[i] & 0x80) == 0) {
      source_->Consume(i + 1);
      *v = result;
      return Status::OK();
    }
  }
  // Straddles the window edge (or is overlong): nothing consumed yet, so
  // decode byte by byte from the start.
  return ReadVarintSlow(v);
}

Status DocumentDecoder::ReadVarintSlow(uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    uint8_t byte;
    CSXA_RETURN_IF_ERROR(ReadByte(&byte));
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::ParseError("overlong varint in document stream");
}

Result<std::string_view> DocumentDecoder::ReadStringView(bool borrow,
                                                         std::string* scratch) {
  uint64_t len;
  CSXA_RETURN_IF_ERROR(ReadVarint(&len));
  if (len > (1u << 26)) return Status::ParseError("oversized string");
  if (len == 0) return std::string_view();
  size_t n = static_cast<size_t>(len);
  if (source_->window_size() >= n) {
    const char* p = reinterpret_cast<const char*>(source_->window());
    source_->Consume(n);
    if (borrow) return std::string_view(p, n);
    scratch->assign(p, n);
    return std::string_view(*scratch);
  }
  // Straddles the window edge: copy.
  scratch->resize(n);
  CSXA_RETURN_IF_ERROR(
      source_->ReadExact(reinterpret_cast<uint8_t*>(scratch->data()), n));
  return std::string_view(*scratch);
}

Result<std::unique_ptr<DocumentDecoder>> DocumentDecoder::Open(
    ByteSource* source) {
  auto dec = std::unique_ptr<DocumentDecoder>(new DocumentDecoder());
  CSXA_RETURN_IF_ERROR(dec->Reopen(source));
  return dec;
}

Status DocumentDecoder::Reopen(ByteSource* source) {
  source_ = source;
  done_ = true;  // until the header and dictionaries are read
  root_closed_ = false;
  just_opened_ = false;
  open_.clear();
  tagset_ids_.clear();
  last_content_size_ = 0;
  last_has_elements_ = false;
  last_has_text_ = false;
  uint8_t magic, flags;
  CSXA_RETURN_IF_ERROR(ReadByte(&magic));
  if (magic != kMagic) return Status::ParseError("bad document magic");
  CSXA_RETURN_IF_ERROR(ReadByte(&flags));
  with_index_ = (flags & kFlagIndex) != 0;
  recursive_ = (flags & kFlagRecursive) != 0;
  CSXA_RETURN_IF_ERROR(ReadDictionary(&tag_dict_));
  CSXA_RETURN_IF_ERROR(ReadDictionary(&attr_dict_));
  // A subtree bitmap has at most one bit per dictionary entry, so this is
  // every straddling bitmap's size: the scratch never grows mid-scan.
  bitmap_scratch_.reserve((tag_dict_.size() + 7) / 8);
  done_ = false;
  return Status::OK();
}

Status DocumentDecoder::ReadDictionary(Interner* dict) {
  uint64_t count;
  CSXA_RETURN_IF_ERROR(ReadVarint(&count));
  if (count > (1u << 20)) return Status::ParseError("dictionary too large");
  bool same = count == dict->size();
  for (uint64_t i = 0; i < count; ++i) {
    // Grown name by name: a count that overstates the names the stream
    // holds fails at the first missing one, before any further growth.
    if (i == name_scratch_.size()) name_scratch_.emplace_back();
    std::string* name = &name_scratch_[i];
    CSXA_ASSIGN_OR_RETURN(std::string_view read,
                          ReadStringView(/*borrow=*/false, name));
    if (read.empty()) name->clear();  // an empty read leaves scratch as is
    same = same && *name == dict->Name(static_cast<TagId>(i));
  }
  if (same) return Status::OK();
  *dict = Interner();
  for (uint64_t i = 0; i < count; ++i) dict->Intern(name_scratch_[i]);
  return Status::OK();
}

Status DocumentDecoder::ReadTagSet() {
  // The bitmap's bits index the parent's set (recursive compression) or
  // the whole dictionary; the root's parent set is the whole dictionary.
  bool over_parent = recursive_ && !open_.empty();
  size_t parent_begin = over_parent ? open_.back().set_begin : 0;
  size_t width = over_parent ? tagset_ids_.size() - parent_begin
                             : tag_dict_.size();
  size_t nbytes = (width + 7) / 8;
  const uint8_t* bits;
  if (source_->window_size() >= nbytes) {
    bits = source_->window();
    source_->Consume(nbytes);
  } else {
    bitmap_scratch_.resize(nbytes);
    CSXA_RETURN_IF_ERROR(source_->ReadExact(bitmap_scratch_.data(), nbytes));
    bits = bitmap_scratch_.data();
  }
  // Set bits in ascending order; bits past `width` in the last byte are
  // padding.
  for (size_t byte = 0; byte < nbytes; ++byte) {
    for (unsigned b = bits[byte]; b != 0; b &= b - 1) {
      size_t i = byte * 8 + static_cast<size_t>(std::countr_zero(b));
      if (i >= width) break;
      // Copy first: push_back may reallocate the parent's entries.
      uint32_t id = over_parent ? tagset_ids_[parent_begin + i]
                                : static_cast<uint32_t>(i);
      tagset_ids_.push_back(id);
    }
  }
  return Status::OK();
}

Result<xml::EventView> DocumentDecoder::NextView() {
  if (done_) return xml::EventView::End();
  if (open_.empty() && root_closed_) {
    if (!source_->AtEnd()) {
      return Status::ParseError("trailing bytes after document root");
    }
    done_ = true;
    return xml::EventView::End();
  }
  uint8_t tok;
  CSXA_RETURN_IF_ERROR(ReadByte(&tok));
  switch (tok) {
    case kTokOpen: {
      uint64_t tag_id, nattrs;
      CSXA_RETURN_IF_ERROR(ReadVarint(&tag_id));
      if (tag_id >= tag_dict_.size()) {
        return Status::ParseError("tag id out of range");
      }
      CSXA_RETURN_IF_ERROR(ReadVarint(&nattrs));
      if (nattrs > 1024) return Status::ParseError("too many attributes");
      // Attribute values go through scratch, not a source borrow: the
      // index metadata reads below would invalidate a chunk-buffer view
      // mid-event. Names borrow from the dictionary (stable).
      attr_views_.clear();
      if (attr_vals_.size() < nattrs) attr_vals_.resize(nattrs);
      for (uint64_t i = 0; i < nattrs; ++i) {
        uint64_t name_id;
        CSXA_RETURN_IF_ERROR(ReadVarint(&name_id));
        if (name_id >= attr_dict_.size()) {
          return Status::ParseError("attribute id out of range");
        }
        CSXA_ASSIGN_OR_RETURN(
            std::string_view value,
            ReadStringView(/*borrow=*/false, &attr_vals_[i]));
        attr_views_.push_back(xml::AttrView{
            attr_dict_.Name(static_cast<uint32_t>(name_id)), value});
      }
      last_content_size_ = 0;
      last_has_elements_ = false;
      last_has_text_ = false;
      size_t set_begin = tagset_ids_.size();
      if (with_index_) {
        CSXA_RETURN_IF_ERROR(ReadVarint(&last_content_size_));
        uint8_t mflags;
        CSXA_RETURN_IF_ERROR(ReadByte(&mflags));
        last_has_elements_ = (mflags & kMetaHasElements) != 0;
        last_has_text_ = (mflags & kMetaHasText) != 0;
        if (last_has_elements_) CSXA_RETURN_IF_ERROR(ReadTagSet());
      }
      open_.push_back(OpenLevel{static_cast<uint32_t>(tag_id), set_begin});
      just_opened_ = true;
      return xml::EventView::Open(
          tag_dict_.Name(static_cast<uint32_t>(tag_id)), attr_views_.data(),
          attr_views_.size(), static_cast<TagId>(tag_id));
    }
    case kTokValue: {
      just_opened_ = false;
      if (open_.empty()) return Status::ParseError("value outside root");
      // The text bytes are the event's last read: borrow them straight
      // from the source's buffer when contiguous (zero-copy for the
      // dominant byte share of a document).
      CSXA_ASSIGN_OR_RETURN(std::string_view text,
                            ReadStringView(/*borrow=*/true, &text_scratch_));
      return xml::EventView::Value(text);
    }
    case kTokClose: {
      just_opened_ = false;
      if (open_.empty()) return Status::ParseError("close without open");
      OpenLevel level = open_.back();
      open_.pop_back();
      tagset_ids_.resize(level.set_begin);
      if (open_.empty()) root_closed_ = true;
      return xml::EventView::Close(tag_dict_.Name(level.tag_id), level.tag_id);
    }
    default:
      return Status::ParseError("unknown token in document stream");
  }
}

bool DocumentDecoder::SubtreeHasTag(TagId tag) const {
  if (!with_index_ || open_.empty() || tag == kNoTagId) return false;
  return std::binary_search(tagset_ids_.begin() + open_.back().set_begin,
                            tagset_ids_.end(), tag);
}

Status DocumentDecoder::SkipContent() {
  if (!with_index_) {
    return Status::InvalidArgument("skip requires the index");
  }
  if (!just_opened_) {
    return Status::InvalidArgument("skip is only legal right after an open");
  }
  just_opened_ = false;
  return source_->Skip(last_content_size_);
}

size_t DocumentDecoder::RecountModeledBytes() const {
  size_t n = tag_dict_.RecountModeledBytes() + attr_dict_.RecountModeledBytes();
  for (size_t i = 0; i < open_.size(); ++i) {
    size_t end = i + 1 < open_.size() ? open_[i + 1].set_begin
                                      : tagset_ids_.size();
    n += 2 * (end - open_[i].set_begin);
  }
  n += 2 * open_.size();
  return n;
}

}  // namespace csxa::skipindex
