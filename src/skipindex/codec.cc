#include "skipindex/codec.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

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

struct Encoder {
  Interner tags;
  Interner attrs;
  EncodeOptions opt;
  EncodeStats stats;
  // S(node): sorted tag ids of strict descendants; computed bottom-up.
  std::unordered_map<const DomNode*, std::vector<uint32_t>> subtree_tags;

  void InternNames(const DomNode* n) {
    if (n->is_text()) return;
    tags.Intern(n->tag());
    for (const auto& a : n->attrs()) attrs.Intern(a.name);
    for (const auto& c : n->children()) InternNames(c.get());
  }

  // Computes S(n) and whether the subtree has text, bottom-up.
  std::pair<std::vector<uint32_t>, bool> ComputeSets(const DomNode* n) {
    std::vector<uint32_t> set;
    bool has_text = false;
    for (const auto& c : n->children()) {
      if (c->is_text()) {
        has_text = true;
        continue;
      }
      auto [child_set, child_text] = ComputeSets(c.get());
      has_text = has_text || child_text;
      child_set.push_back(tags.Lookup(c->tag()));
      for (uint32_t id : child_set) set.push_back(id);
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    subtree_tags.emplace(n, set);
    subtree_has_text.emplace(n, has_text);
    return {std::move(set), has_text};
  }
  std::unordered_map<const DomNode*, bool> subtree_has_text;

  // Encodes the bitmap of `set` over `base` (recursive mode) or over the
  // full dictionary. Returns encoded bytes and accounts them.
  Bytes EncodeBitmap(const std::vector<uint32_t>& set,
                     const std::vector<uint32_t>& base) {
    ByteWriter w;
    if (opt.recursive_bitmaps) {
      size_t width = base.size();
      size_t nbytes = (width + 7) / 8;
      std::vector<uint8_t> bits(nbytes, 0);
      size_t si = 0;
      for (size_t i = 0; i < base.size(); ++i) {
        while (si < set.size() && set[si] < base[i]) ++si;
        if (si < set.size() && set[si] == base[i]) {
          bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
        }
      }
      for (uint8_t b : bits) w.PutU8(b);
    } else {
      size_t width = tags.size();
      size_t nbytes = (width + 7) / 8;
      std::vector<uint8_t> bits(nbytes, 0);
      for (uint32_t id : set) {
        bits[id / 8] |= static_cast<uint8_t>(1u << (id % 8));
      }
      for (uint8_t b : bits) w.PutU8(b);
    }
    return w.Take();
  }

  // Encodes one element (OPEN .. content .. CLOSE); `base` is the parent's
  // subtree tag set (full dictionary at the root).
  Bytes EncodeElement(const DomNode* n, const std::vector<uint32_t>& base) {
    ++stats.element_count;
    const std::vector<uint32_t>& own_set = subtree_tags.at(n);
    // Content first (children in document order).
    ByteWriter content;
    for (const auto& c : n->children()) {
      if (c->is_text()) {
        ByteWriter v;
        v.PutU8(kTokValue);
        PutVarint(&v, c->text().size());
        v.PutBytes(Span(c->text()));
        stats.text_bytes += v.size();
        content.PutBytes(v.bytes());
      } else {
        Bytes child = EncodeElement(c.get(), own_set);
        content.PutBytes(child);
      }
    }
    // OPEN token.
    ByteWriter open;
    open.PutU8(kTokOpen);
    PutVarint(&open, tags.Lookup(n->tag()));
    PutVarint(&open, n->attrs().size());
    for (const auto& a : n->attrs()) {
      PutVarint(&open, attrs.Lookup(a.name));
      PutVarint(&open, a.value.size());
      open.PutBytes(Span(a.value));
    }
    stats.structure_bytes += open.size() + 1;  // +1 for CLOSE
    if (opt.with_index) {
      size_t before = open.size();
      PutVarint(&open, content.size());
      uint8_t mflags = 0;
      if (!own_set.empty()) mflags |= kMetaHasElements;
      if (subtree_has_text.at(n)) mflags |= kMetaHasText;
      open.PutU8(mflags);
      stats.index_size_bytes += open.size() - before;
      if (!own_set.empty()) {
        Bytes bitmap = EncodeBitmap(own_set, base);
        stats.index_bitmap_bytes += bitmap.size();
        open.PutBytes(bitmap);
      }
    }
    ByteWriter out;
    out.PutBytes(open.bytes());
    out.PutBytes(content.bytes());
    out.PutU8(kTokClose);
    return out.Take();
  }
};

}  // namespace

Result<Bytes> EncodeDocument(const xml::DomDocument& doc,
                             const EncodeOptions& options, EncodeStats* stats) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("cannot encode an empty document");
  }
  Encoder enc;
  enc.opt = options;
  enc.InternNames(doc.root());
  enc.ComputeSets(doc.root());

  ByteWriter out;
  out.PutU8(kMagic);
  uint8_t flags = 0;
  if (options.with_index) flags |= kFlagIndex;
  if (options.recursive_bitmaps) flags |= kFlagRecursive;
  out.PutU8(flags);
  size_t before_dict = out.size();
  enc.tags.EncodeTo(&out);
  enc.attrs.EncodeTo(&out);
  enc.stats.dict_bytes = out.size() - before_dict;

  std::vector<uint32_t> root_base(enc.tags.size());
  for (uint32_t i = 0; i < enc.tags.size(); ++i) root_base[i] = i;
  Bytes body = enc.EncodeElement(doc.root(), root_base);
  out.PutBytes(body);

  enc.stats.total_bytes = out.size();
  if (stats != nullptr) *stats = enc.stats;
  return out.Take();
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

Result<std::string> DocumentDecoder::ReadString() {
  uint64_t len;
  CSXA_RETURN_IF_ERROR(ReadVarint(&len));
  if (len > (1u << 26)) return Status::ParseError("oversized string");
  std::string s(len, '\0');
  CSXA_RETURN_IF_ERROR(
      source_->ReadExact(reinterpret_cast<uint8_t*>(s.data()), len));
  return s;
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
  dec->source_ = source;
  uint8_t magic, flags;
  CSXA_RETURN_IF_ERROR(dec->ReadByte(&magic));
  if (magic != kMagic) return Status::ParseError("bad document magic");
  CSXA_RETURN_IF_ERROR(dec->ReadByte(&flags));
  dec->with_index_ = (flags & kFlagIndex) != 0;
  dec->recursive_ = (flags & kFlagRecursive) != 0;

  // Dictionaries: decode via a bounded in-memory read. Sizes first require
  // streaming varints, so decode entry by entry.
  auto decode_dict = [&](Interner* dict) -> Status {
    uint64_t count;
    CSXA_RETURN_IF_ERROR(dec->ReadVarint(&count));
    if (count > (1u << 20)) return Status::ParseError("dictionary too large");
    for (uint64_t i = 0; i < count; ++i) {
      CSXA_ASSIGN_OR_RETURN(std::string name, dec->ReadString());
      dict->Intern(name);
    }
    return Status::OK();
  };
  CSXA_RETURN_IF_ERROR(decode_dict(&dec->tag_dict_));
  CSXA_RETURN_IF_ERROR(decode_dict(&dec->attr_dict_));
  return dec;
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

Result<xml::Event> DocumentDecoder::Next() {
  CSXA_ASSIGN_OR_RETURN(xml::EventView v, NextView());
  return v.Materialize();
}

bool DocumentDecoder::SubtreeHasTag(std::string_view tag) const {
  if (!with_index_ || open_.empty()) return false;
  uint32_t id = tag_dict_.Lookup(tag);
  if (id == kNoTagId) return false;
  return std::binary_search(tagset_ids_.begin() + open_.back().set_begin,
                            tagset_ids_.end(), id);
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

std::vector<ChunkRun> ChunkMap::Runs(
    const std::vector<ByteRange>& ranges) const {
  // Each byte range touches the inclusive chunk interval
  // [ChunkOf(begin), ChunkOf(end - 1)], clamped to the geometry.
  std::vector<std::pair<uint32_t, uint32_t>> intervals;
  intervals.reserve(ranges.size());
  for (const ByteRange& r : ranges) {
    if (r.end <= r.begin || chunk_count_ == 0) continue;
    uint32_t first = ChunkOf(r.begin);
    if (first >= chunk_count_) continue;
    uint32_t last = std::min(ChunkOf(r.end - 1), chunk_count_ - 1);
    intervals.emplace_back(first, last);
  }
  std::sort(intervals.begin(), intervals.end());
  std::vector<ChunkRun> runs;
  for (const auto& [first, last] : intervals) {
    // Merge overlapping *and* adjacent intervals: chunks first-1 and first
    // both needed means one contiguous span serves both.
    if (!runs.empty() &&
        first <= runs.back().first + runs.back().count) {
      uint32_t back_last = runs.back().first + runs.back().count - 1;
      if (last > back_last) {
        runs.back().count = last - runs.back().first + 1;
      }
    } else {
      runs.push_back(ChunkRun{first, last - first + 1});
    }
  }
  return runs;
}

}  // namespace csxa::skipindex
