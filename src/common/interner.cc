#include "common/interner.h"

#include "common/varint.h"

namespace csxa {

TagId Interner::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  modeled_bytes_ += 2 + name.size();
  return id;
}

TagId Interner::Lookup(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNoTagId : it->second;
}

void Interner::EncodeTo(ByteWriter* out) const {
  PutVarint(out, names_.size());
  for (const std::string& n : names_) {
    PutVarint(out, n.size());
    out->PutBytes(Span(n));
  }
}

Result<Interner> Interner::DecodeFrom(ByteReader* in) {
  uint64_t count;
  if (!GetVarint(in, &count) || count > 1u << 20) {
    return Status::ParseError("tag dictionary truncated or oversized");
  }
  Interner dict;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len;
    Span bytes;
    if (!GetVarint(in, &len) || !in->GetBytes(len, &bytes)) {
      return Status::ParseError("tag dictionary name truncated");
    }
    dict.Intern(bytes.ToString());
  }
  return dict;
}

size_t Interner::RecountModeledBytes() const {
  size_t n = 0;
  for (const std::string& s : names_) n += 2 + s.size();
  return n;
}

}  // namespace csxa
