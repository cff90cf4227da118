#include "skipindex/filter.h"

#include "skipindex/byte_source.h"

namespace csxa::skipindex {

Status RunFiltered(DocumentDecoder* decoder,
                   core::StreamingEvaluator* evaluator,
                   const FilterOptions& options, FilterStats* stats) {
  // Events from the decoder carry its dictionary's tag ids; bind them so
  // the evaluator dispatches on integers without per-event name lookups,
  // and its skip probe asks the decoder by id, with no hash per probe.
  evaluator->BindDocumentTags(decoder->tags());
  for (;;) {
    // Borrowed fast path: the decoder's views flow into the evaluator
    // without materializing an owning event; they die when OnEventView
    // returns (the skip probe below only reads decoder metadata).
    CSXA_ASSIGN_OR_RETURN(xml::EventView event, decoder->NextView());
    CSXA_RETURN_IF_ERROR(evaluator->OnEventView(event));
    if (options.on_event) {
      CSXA_RETURN_IF_ERROR(options.on_event());
    }
    if (event.type == xml::EventType::kEnd) break;
    if (event.type == xml::EventType::kOpen && options.enable_skip &&
        decoder->has_index() && decoder->last_content_size() > 0) {
      bool nonempty = decoder->last_has_elements();
      auto has_tag = [decoder](TagId tag) {
        return decoder->SubtreeHasTag(tag);
      };
      if (evaluator->CanSkipCurrentSubtree(has_tag, nonempty,
                                           decoder->last_has_text())) {
        uint64_t n = decoder->last_content_size();
        CSXA_RETURN_IF_ERROR(decoder->SkipContent());
        evaluator->NoteSubtreeSkipped();
        if (stats != nullptr) {
          stats->bytes_skipped += n;
          ++stats->skips;
        }
      }
    }
  }
  return Status::OK();
}

namespace {
// The planning probe evaluates reachability only; delivered-view events
// go nowhere.
class NullSink : public xml::EventSink {
 public:
  Status OnEventView(const xml::EventView&) override { return Status::OK(); }
};

// The planning probe's source: records the chunk index of every byte read
// from the inner source, once per chunk (reads only move forward). Skips
// advance the cursor unrecorded, which is the whole point: skipped chunks
// never need fetching. It exposes no byte window, so every read reaches
// ReadExact.
class ChunkRecordingSource : public ByteSource {
 public:
  ChunkRecordingSource(ByteSource* inner, uint32_t chunk_size)
      : inner_(inner), chunk_size_(chunk_size) {}

  Status ReadExact(uint8_t* buf, size_t n) override {
    const uint64_t at = inner_->position();
    CSXA_RETURN_IF_ERROR(inner_->ReadExact(buf, n));
    if (n == 0) return Status::OK();
    const auto last = static_cast<uint32_t>((at + n - 1) / chunk_size_);
    for (auto c = static_cast<uint32_t>(at / chunk_size_); c <= last; ++c) {
      if (chunks_.empty() || chunks_.back() != c) chunks_.push_back(c);
    }
    return Status::OK();
  }
  Status Skip(uint64_t n) override { return inner_->Skip(n); }
  uint64_t position() const override { return inner_->position(); }
  bool AtEnd() const override { return inner_->AtEnd(); }

  std::vector<uint32_t> TakeChunks() { return std::move(chunks_); }

 private:
  ByteSource* inner_;
  uint32_t chunk_size_;
  std::vector<uint32_t> chunks_;
};
}  // namespace

Result<std::vector<uint32_t>> CollectTouchedChunks(
    Span encoded, uint32_t chunk_size,
    const std::vector<core::AccessRule>& rules, const xpath::PathExpr* query,
    bool enable_skip) {
  if (chunk_size == 0) {
    return Status::InvalidArgument("fetch plan needs a non-zero chunk size");
  }
  MemorySource memory(encoded);
  ChunkRecordingSource recorder(&memory, chunk_size);
  CSXA_ASSIGN_OR_RETURN(auto decoder, DocumentDecoder::Open(&recorder));
  NullSink sink;
  CSXA_ASSIGN_OR_RETURN(auto evaluator,
                        core::StreamingEvaluator::Create(rules, query, &sink));
  FilterOptions options;
  options.enable_skip = enable_skip;
  CSXA_RETURN_IF_ERROR(
      RunFiltered(decoder.get(), evaluator.get(), options, nullptr));
  return recorder.TakeChunks();
}

}  // namespace csxa::skipindex
