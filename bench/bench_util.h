#ifndef CSXA_BENCH_BENCH_UTIL_H_
#define CSXA_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// \brief Shared setup for the experiment binaries: sealed-document
/// fixtures, rule sets calibrated to an authorized fraction, and a small
/// aligned-table printer so every bench prints paper-style rows.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "core/rule_envelope.h"
#include "crypto/container.h"
#include "skipindex/codec.h"
#include "soe/card_engine.h"
#include "xml/generator.h"
#include "xpath/parser.h"

namespace csxa::bench {

/// True when CSXA_BENCH_SMOKE is set (the ctest `bench-smoke` entries set
/// it): every bench shrinks its workload to a tiny size so the perf code
/// keeps running — not just compiling — on every CI pass.
inline bool SmokeMode() {
  static const bool on = [] {
    const char* v = std::getenv("CSXA_BENCH_SMOKE");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return on;
}

/// Caps a workload dimension (element count, fan-out, repeat count) in
/// smoke mode; returns it unchanged in a full run.
inline size_t Smoke(size_t n, size_t cap = 200) {
  return SmokeMode() && n > cap ? cap : n;
}

/// \brief Machine-readable benchmark tracking (the BENCH_*.json files).
///
/// When the CSXA_BENCH_JSON environment variable names a file, every
/// Add() call records one entry and the report is written on process exit
/// as a flat JSON object:
///
///   { "<name>": {"time_ns": ..., "events_per_s": ..., "bytes_per_s": ...,
///                "value": ...},
///     ... }
///
/// `value` carries series that are not times or rates (modeled RAM peaks,
/// index overhead fractions, policy-update byte counts); time/rate-shaped
/// benches leave it 0.
///
/// scripts/bench.sh sets the variable per bench binary; the table output
/// on stdout stays the human-readable form of the same runs. Without the
/// variable, Add() is a no-op — benches never write files on their own.
class JsonReport {
 public:
  static JsonReport& Get() {
    static JsonReport* r = new JsonReport();  // intentionally leaked
    return *r;
  }

  void Add(const std::string& name, double time_ns, double events_per_s = 0.0,
           double bytes_per_s = 0.0, double value = 0.0) {
    if (path_.empty()) return;
    entries_.push_back(Entry{name, time_ns, events_per_s, bytes_per_s, value});
  }

  /// Records a value-shaped series (no time/rate component).
  void AddValue(const std::string& name, double value) {
    Add(name, 0.0, 0.0, 0.0, value);
  }

  /// Writes the report (atexit hook; safe to call when disabled or empty).
  void Write() {
    if (path_.empty() || entries_.empty() || written_) return;
    written_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "  \"%s\": {\"time_ns\": %.6g, \"events_per_s\": %.6g, "
                   "\"bytes_per_s\": %.6g, \"value\": %.6g}%s\n",
                   e.name.c_str(), e.time_ns, e.events_per_s, e.bytes_per_s,
                   e.value, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

 private:
  JsonReport() {
    const char* p = std::getenv("CSXA_BENCH_JSON");
    if (p != nullptr && *p != '\0') {
      path_ = p;
      std::atexit([] { JsonReport::Get().Write(); });
    }
  }

  struct Entry {
    std::string name;
    double time_ns;
    double events_per_s;
    double bytes_per_s;
    double value;
  };
  std::string path_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// A sealed document ready for card sessions, with an in-memory provider.
struct Fixture {
  crypto::SymmetricKey key;
  Bytes container_bytes;
  std::unique_ptr<crypto::SecureContainer> container;
  Bytes header_bytes;
  Bytes sealed_rules;
  core::RuleSet rules;
  xml::DomDocument doc;
  skipindex::EncodeStats encode_stats;
  size_t encoded_bytes = 0;
};

/// ChunkProvider over a fixture (pull or push): the shared container
/// provider, modeling a remote DSP front-end (round trips counted).
using FixtureProvider = soe::ContainerChunkProvider;

/// Builds a sealed fixture from a generated document and rule text.
inline Fixture MakeFixture(xml::DocProfile profile, size_t elements,
                           const std::string& rules_text, uint64_t seed,
                           size_t chunk_size = 512, bool with_index = true,
                           bool recursive = true, size_t text_avg = 24) {
  Fixture fx;
  elements = Smoke(elements);
  Rng rng(seed);
  fx.key = crypto::SymmetricKey::Generate(&rng);
  xml::GeneratorParams gp;
  gp.profile = profile;
  gp.target_elements = elements;
  gp.seed = seed;
  gp.text_avg_len = text_avg;
  fx.doc = xml::GenerateDocument(gp);
  skipindex::EncodeOptions eopt;
  eopt.with_index = with_index;
  eopt.recursive_bitmaps = recursive;
  auto encoded = skipindex::EncodeDocument(fx.doc, eopt, &fx.encode_stats);
  fx.encoded_bytes = encoded.value().size();
  fx.container_bytes =
      crypto::SecureContainer::Seal(fx.key, encoded.value(), chunk_size, &rng);
  fx.container = std::make_unique<crypto::SecureContainer>(
      crypto::SecureContainer::Parse(fx.container_bytes).value());
  ByteWriter hw;
  fx.container->header().EncodeTo(&hw);
  fx.header_bytes = hw.Take();
  fx.rules = core::RuleSet::ParseText(rules_text).value();
  fx.sealed_rules = core::SealRuleEnvelope(crypto::DocCipher::For(fx.key),
                                          fx.rules, /*version=*/1, &rng);
  return fx;
}

/// The rule message a terminal hands `subject`'s card: the envelope's
/// header and the subject's record (core::CutRuleMessage by its label).
inline Bytes RuleMessageFor(const crypto::DocCipher& cipher, Span envelope,
                            std::string_view subject) {
  Bytes message;
  CSXA_CHECK(core::CutRuleMessage(envelope, core::SubjectLabel(cipher, subject),
                                  &message)
                 .ok());
  return message;
}

/// Runs one pull session on an e-gate card over the fixture.
inline soe::SessionOutput RunSession(const Fixture& fx,
                                     const std::string& subject,
                                     const std::string& query, bool use_skip,
                                     soe::CardProfile profile =
                                         soe::CardProfile::EGate(),
                                     bool push_mode = false) {
  soe::CardEngine card(profile);
  card.InstallKey("doc", fx.key);
  FixtureProvider provider(fx.container.get());
  soe::SessionOptions opts;
  opts.subject = subject;
  opts.query_text = query;
  opts.use_skip = use_skip;
  opts.push_mode = push_mode;
  const Bytes message =
      RuleMessageFor(crypto::DocCipher::For(fx.key), fx.sealed_rules, subject);
  auto out = card.RunSession("doc", fx.header_bytes, message, &provider, opts);
  CSXA_CHECK(out.ok());
  return std::move(out).value();
}

/// Authorized element fraction for (subject, query) on the fixture.
inline double AuthFraction(const Fixture& fx, const std::string& subject,
                           const std::string& query) {
  xpath::PathExpr qexpr;
  const xpath::PathExpr* qptr = nullptr;
  if (!query.empty()) {
    qexpr = xpath::ParsePath(query).value();
    qptr = &qexpr;
  }
  return core::AuthorizedFraction(fx.doc, fx.rules.ForSubject(subject), qptr);
}

/// \brief Tiny fixed-width table printer (paper-style rows).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t i = 0; i < headers_.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s|", std::string(widths[i] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style cell formatting helper.
inline std::string Fmt(const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace csxa::bench

#endif  // CSXA_BENCH_BENCH_UTIL_H_
