#ifndef CSXA_COMMON_INTERNER_H_
#define CSXA_COMMON_INTERNER_H_

/// \file interner.h
/// \brief Shared tag/name interner (XGRIND-style dictionary, §2.3 [9]).
///
/// One table maps names to dense 32-bit ids and back. It started life as
/// the skip index's tag dictionary; it is now a first-class subsystem used
/// across the event pipeline: the document codec stores ids instead of
/// names, `xml::Event` carries the producer's id so the evaluator can
/// dispatch on integers instead of strings, and the skip index's
/// per-subtree tag sets are bit arrays over it.
///
/// Ownership rules (see src/common/README.md): the interner owns its name
/// strings; `Name()` returns a reference that is stable for the interner's
/// lifetime (names are never removed). Lookup accepts `std::string_view`
/// so hot paths can probe with non-owning slices of a document buffer.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/bytes.h"
#include "common/status.h"

namespace csxa {

/// Dense id assigned by an Interner.
using TagId = uint32_t;

/// Sentinel for "name not in the table".
inline constexpr TagId kNoTagId = 0xFFFFFFFFu;

/// \brief An ordered, deduplicated name table with O(1) lookups both ways.
///
/// Ids are assigned in first-Intern order starting at 0, so two interners
/// fed the same name sequence assign identical ids (the property the codec
/// round-trip relies on).
class Interner {
 public:
  Interner() = default;

  /// Adds a name if absent; returns its id.
  TagId Intern(std::string_view name);
  /// Id of `name`, or kNoTagId.
  TagId Lookup(std::string_view name) const;
  /// Name of `id` (must be < size()); stable reference, never invalidated.
  const std::string& Name(TagId id) const { return names_[id]; }
  /// Number of entries.
  size_t size() const { return names_.size(); }

  /// Serialized form: varint count, then per name varint length + bytes.
  void EncodeTo(ByteWriter* out) const;
  static Result<Interner> DecodeFrom(ByteReader* in);

  /// Modeled on-card footprint (the SOE keeps the dictionary in RAM):
  /// 2 bytes per entry plus its name. A running total kept by Intern(),
  /// so the card's per-event RAM meter reads it in O(1).
  size_t ModeledBytes() const { return modeled_bytes_; }
  /// ModeledBytes() recomputed from scratch by walking every name: the
  /// differential check for the running total.
  size_t RecountModeledBytes() const;

 private:
  // Heterogeneous hashing so Lookup(string_view) never materializes a
  // std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  // Deque, not vector: Name() hands out references that must survive
  // later Intern() calls (the documented stability contract).
  std::deque<std::string> names_;
  std::unordered_map<std::string, TagId, Hash, Eq> index_;
  size_t modeled_bytes_ = 0;
};

}  // namespace csxa

#endif  // CSXA_COMMON_INTERNER_H_
