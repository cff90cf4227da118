#include "skipindex/codec.h"

#include <algorithm>
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

Status DocumentDecoder::ReadByte(uint8_t* b) {
  return source_->ReadExact(b, 1);
}

Status DocumentDecoder::ReadVarint(uint64_t* v) {
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
  if (borrow) {
    const uint8_t* p = source_->View(static_cast<size_t>(len));
    if (p != nullptr) {
      return std::string_view(reinterpret_cast<const char*>(p),
                              static_cast<size_t>(len));
    }
  }
  scratch->resize(static_cast<size_t>(len));
  CSXA_RETURN_IF_ERROR(source_->ReadExact(
      reinterpret_cast<uint8_t*>(scratch->data()), static_cast<size_t>(len)));
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

Result<xml::EventView> DocumentDecoder::NextView() {
  if (done_) return xml::EventView::End();
  if (depth_ == 0 && root_closed_) {
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
      std::vector<uint32_t> own_set;
      if (with_index_) {
        CSXA_RETURN_IF_ERROR(ReadVarint(&last_content_size_));
        uint8_t mflags;
        CSXA_RETURN_IF_ERROR(ReadByte(&mflags));
        last_has_elements_ = (mflags & kMetaHasElements) != 0;
        last_has_text_ = (mflags & kMetaHasText) != 0;
        if (last_has_elements_) {
          size_t width;
          if (recursive_) {
            width = tagset_stack_.empty() ? tag_dict_.size()
                                          : tagset_stack_.back().size();
          } else {
            width = tag_dict_.size();
          }
          size_t nbytes = (width + 7) / 8;
          std::vector<uint8_t> bits(nbytes);
          if (nbytes > 0) {
            CSXA_RETURN_IF_ERROR(source_->ReadExact(bits.data(), nbytes));
          }
          for (size_t i = 0; i < width; ++i) {
            if ((bits[i / 8] >> (i % 8)) & 1) {
              uint32_t id;
              if (recursive_) {
                id = tagset_stack_.empty() ? static_cast<uint32_t>(i)
                                           : tagset_stack_.back()[i];
              } else {
                id = static_cast<uint32_t>(i);
              }
              own_set.push_back(id);
            }
          }
        }
      }
      tagset_stack_.push_back(std::move(own_set));
      open_tag_ids_.push_back(static_cast<uint32_t>(tag_id));
      ++depth_;
      just_opened_ = true;
      return xml::EventView::Open(
          tag_dict_.Name(static_cast<uint32_t>(tag_id)), attr_views_.data(),
          attr_views_.size(), static_cast<TagId>(tag_id));
    }
    case kTokValue: {
      just_opened_ = false;
      if (depth_ == 0) return Status::ParseError("value outside root");
      // The text bytes are the event's last read: borrow them straight
      // from the source's buffer when contiguous (zero-copy for the
      // dominant byte share of a document).
      CSXA_ASSIGN_OR_RETURN(std::string_view text,
                            ReadStringView(/*borrow=*/true, &text_scratch_));
      return xml::EventView::Value(text);
    }
    case kTokClose: {
      just_opened_ = false;
      if (depth_ == 0) return Status::ParseError("close without open");
      uint32_t tag_id = open_tag_ids_.back();
      open_tag_ids_.pop_back();
      tagset_stack_.pop_back();
      --depth_;
      if (depth_ == 0) root_closed_ = true;
      return xml::EventView::Close(tag_dict_.Name(tag_id), tag_id);
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
  if (!with_index_ || tagset_stack_.empty()) return false;
  uint32_t id = tag_dict_.Lookup(tag);
  if (id == kNoTagId) return false;
  const std::vector<uint32_t>& set = tagset_stack_.back();
  return std::binary_search(set.begin(), set.end(), id);
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

size_t DocumentDecoder::ModeledBytes() const {
  size_t n = tag_dict_.ModeledBytes() + attr_dict_.ModeledBytes();
  for (const auto& set : tagset_stack_) n += set.size() * 2;
  n += open_tag_ids_.size() * 2;
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
