#include "skipindex/filter.h"

#include "skipindex/byte_source.h"

namespace csxa::skipindex {

Status RunFiltered(DocumentDecoder* decoder,
                   core::StreamingEvaluator* evaluator,
                   const FilterOptions& options, FilterStats* stats) {
  // Events from the decoder carry its dictionary's tag ids; bind them so
  // the evaluator dispatches on integers without per-event name lookups.
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
      auto has_tag = [decoder](std::string_view tag) {
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
  if (stats != nullptr) {
    // Position is the whole stream: reads plus skips.
    stats->bytes_total = 0;  // filled by callers that know the source size
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
}  // namespace

Result<std::vector<ByteRange>> CollectTouchedRanges(
    Span encoded, const std::vector<core::AccessRule>& rules,
    const xpath::PathExpr* query, bool enable_skip) {
  MemorySource memory(encoded);
  RangeRecordingSource recorder(&memory);
  CSXA_ASSIGN_OR_RETURN(auto decoder, DocumentDecoder::Open(&recorder));
  NullSink sink;
  CSXA_ASSIGN_OR_RETURN(auto evaluator,
                        core::StreamingEvaluator::Create(rules, query, &sink));
  FilterOptions options;
  options.enable_skip = enable_skip;
  CSXA_RETURN_IF_ERROR(
      RunFiltered(decoder.get(), evaluator.get(), options, nullptr));
  return recorder.ranges();
}

}  // namespace csxa::skipindex
