#include "driver.h"

#include <string_view>
#include <thread>

#include "common/logging.h"
#include "core/ref_evaluator.h"
#include "soe/card_profile.h"
#include "xpath/parser.h"

namespace perfbench {

namespace proxy = csxa::proxy;
namespace scengen = csxa::scengen;
using csxa::Result;
using csxa::Status;

namespace {

// Chunk size of the RunLoad topology this stack reproduces.
constexpr size_t kChunkSize = 256;
// Attempts of a query that keeps losing key-rotation races; each re-run
// needs a republish that overlapped the attempt before it.
constexpr uint32_t kMaxQueryAttempts = 8;

uint64_t SpecSeed(uint64_t seed, uint64_t catalog_seed) {
  // Distinct seeds give distinct scenarios; the catalog seed keeps the
  // workloads' streams apart for equal --seed values.
  return seed * 0x9E3779B97F4A7C15ull + catalog_seed;
}

uint64_t HashView(const std::string& xml) {
  return std::hash<std::string_view>{}(xml);
}

std::vector<size_t> OwnedBy(const std::vector<std::unique_ptr<DocState>>& docs,
                            size_t session) {
  std::vector<size_t> own;
  for (size_t d = 0; d < docs.size(); ++d) {
    if (docs[d]->owner == session) own.push_back(d);
  }
  return own;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"hospital_scan", "iot_fleet", "ehealth_durable"};
}

std::optional<WorkloadDef> FindWorkload(const std::string& name,
                                        uint64_t seed) {
  WorkloadDef def;
  def.name = name;
  if (name == "hospital_scan") {
    // Deep e-health folders, large documents, read-only: the card session
    // dominates and the working set fits the cache.
    def.spec = scengen::EHealthMobilitySpec();
    def.spec.name = "hospital-scan";
    def.spec.documents = 8;
    def.spec.doc.elements = 2000;
    def.spec.churn = scengen::ChurnShape{0, 0, 0};
    def.owner_phase = true;
    def.warmup_ops = 100;
    def.replay_ops = 24;
  } else if (name == "iot_fleet") {
    def.spec = scengen::IoTFleetSpec();
    def.warmup_ops = 3000;
    def.replay_ops = 600;
  } else if (name == "ehealth_durable") {
    def.spec = scengen::EHealthMobilitySpec();
    def.backend = Backend::kDurable;
    def.warmup_ops = 500;
    def.replay_ops = 160;
  } else {
    return std::nullopt;
  }
  def.spec.seed = SpecSeed(seed, def.spec.seed);
  return def;
}

// --- World ------------------------------------------------------------------

World::World(Backend backend, const scengen::GeneratedScenario* gen,
             uint64_t seed, Tracer* tracer)
    : gen_(gen), stack_(backend, seed, tracer) {
  // Queries run as the hand-written policy's subjects. The generated
  // subjects are stable too, but their rules are drawn per seed and
  // permit anything from nothing to the whole document, which would make
  // the latency distribution a property of the seed.
  auto base = csxa::core::RuleSet::ParseText(gen_->spec.rules.base_rules_text);
  CSXA_CHECK(base.ok());  // catalog specs carry well-formed base policies
  const std::vector<std::string> base_subjects = base.value().Subjects();
  for (size_t k = 0; k < kSessions; ++k) {
    publishers_.push_back(std::make_unique<proxy::Publisher>(
        stack_.top(), stack_.registry(), seed * 31 + k));
  }
  for (const scengen::ScenarioDoc& sd : gen_->docs) {
    auto doc = std::make_unique<DocState>();
    doc->index = sd.index;
    doc->doc_id = sd.doc_id;
    doc->subjects = base_subjects;
    doc->owner = sd.index % kSessions;
    docs_.push_back(std::move(doc));
  }
}

Status World::Publish() {
  const proxy::PublishOptions options{.chunk_size = kChunkSize};
  for (auto& doc : docs_) {
    const scengen::ScenarioDoc& sd = gen_->docs[doc->index];
    auto receipt = publishers_[doc->owner]->Publish(
        sd.doc_id, gen_->Materialize(sd), sd.rules_text, options);
    if (!receipt.ok()) return receipt.status();
    doc->key = receipt.value().key;
    AddUserBytes(receipt.value().container_bytes +
                 receipt.value().sealed_rules_bytes);
  }
  return Status::OK();
}

// --- Session ----------------------------------------------------------------

Session::Session(World* world, size_t index, uint64_t seed)
    : world_(world),
      index_(index),
      rng_(seed * 9176 + index),
      own_(OwnedBy(world->docs(), index)) {}

OpRecord Session::RunNext(const Mix& mix) {
  const double dice = rng_.NextDouble();
  if (!own_.empty() && dice < mix.publish_fraction) {
    return Publish(own_[rng_.Uniform(own_.size())]);
  }
  if (!own_.empty() && dice < mix.publish_fraction + mix.update_fraction) {
    return Update(own_[rng_.Uniform(own_.size())]);
  }
  const size_t doc = rng_.Uniform(world_->docs().size());
  const size_t subject = rng_.Uniform(world_->docs()[doc]->subjects.size());
  // The catalog's hand-written queries come first in the query mix; the
  // generated ones are left out for the same reason as generated subjects.
  const size_t query =
      rng_.Uniform(world_->gen().spec.queries.base_queries.size());
  return Query(doc, subject, query);
}

OpRecord Session::Query(size_t d, size_t s, size_t q) {
  DocState& doc = *world_->docs()[d];
  Tracer* tracer = world_->tracer();
  const std::string& subject = doc.subjects[s];
  proxy::Terminal& terminal =
      terminals_
          .try_emplace(subject, subject, csxa::soe::CardProfile::EGate(),
                       world_->stack().top(), world_->stack().registry())
          .first->second;
  proxy::QueryOptions options;
  options.query = world_->gen().queries[q].second;

  OpRecord rec;
  rec.kind = OpKind::kQuery;
  rec.op_id = world_->NextOpId();
  rec.doc = static_cast<uint32_t>(d);
  rec.subject = static_cast<uint32_t>(s);
  rec.query = static_cast<uint32_t>(q);
  OpScope scope(rec.op_id);
  rec.start_ns = NowNs();
  rec.lo = doc.completed.load(std::memory_order_acquire);
  {
    ScopedSpan root(tracer, Layer::kOpQuery);
    for (uint32_t attempt = 1;; ++attempt) {
      const uint64_t rotations =
          doc.republishes_completed.load(std::memory_order_acquire);
      Status status = Status::OK();
      {
        ScopedSpan span(tracer, Layer::kProvision);
        status = terminal.Provision(doc.doc_id);
        span.set_ok(status.ok());
      }
      if (status.ok()) {
        ScopedSpan span(tracer, Layer::kSoe);
        Result<proxy::QueryResult> result = terminal.Query(doc.doc_id, options);
        span.set_ok(result.ok());
        if (result.ok()) {
          rec.ok = true;
          rec.view_hash = HashView(result.value().xml);
          rec.card = result.value().card;
          rec.terminal_dsp_round_trips = result.value().dsp_round_trips;
          rec.apdu_exchanges = result.value().apdu_round_trips;
          break;
        }
        status = result.status();
      }
      // The owner republished under a fresh key while this query ran: the
      // card rightly refused to mix the old key with the new container.
      // The terminal waits until the owner has deposited the new key, then
      // re-provisions and asks again; anything else is a failure.
      const uint64_t started =
          doc.republishes_started.load(std::memory_order_acquire);
      if (started > rotations && attempt < kMaxQueryAttempts) {
        while (doc.republishes_completed.load(std::memory_order_acquire) <
               started) {
          std::this_thread::yield();
        }
        ++rec.requeries;
        continue;
      }
      rec.error = status.ToString() + " (attempt " + std::to_string(attempt) +
                  ", card's last rules version " +
                  std::to_string(terminal.applet().engine().LastRulesVersion(
                      doc.doc_id)) +
                  ")";
      break;
    }
    root.set_ok(rec.ok);
  }
  rec.end_ns = NowNs();
  rec.hi = doc.started.load(std::memory_order_acquire);
  return rec;
}

OpRecord Session::Update(size_t d) {
  DocState& doc = *world_->docs()[d];
  Tracer* tracer = world_->tracer();
  const uint64_t revision = doc.revision + 1;
  // Input generation stays outside the operation's timing.
  const std::string rules =
      world_->gen().RulesRevision(doc.index, revision);
  doc.revision = revision;
  doc.history.emplace_back(doc.history.back().first, revision);
  const uint64_t seq = doc.history.size() - 1;

  OpRecord rec;
  rec.kind = OpKind::kUpdate;
  rec.op_id = world_->NextOpId();
  rec.doc = static_cast<uint32_t>(d);
  OpScope scope(rec.op_id);
  rec.start_ns = NowNs();
  doc.started.store(seq, std::memory_order_release);
  {
    ScopedSpan root(tracer, Layer::kOpUpdate);
    Result<size_t> updated = Status::Internal("not run");
    {
      ScopedSpan span(tracer, Layer::kUpdate);
      updated = world_->publisher(index_)->UpdateRules(doc.doc_id, doc.key,
                                                        rules);
      span.set_ok(updated.ok());
    }
    rec.ok = updated.ok();
    if (rec.ok) {
      rec.user_bytes = updated.value();
    } else {
      rec.error = updated.status().ToString();
    }
    root.set_ok(rec.ok);
  }
  doc.completed.store(seq, std::memory_order_release);
  rec.end_ns = NowNs();
  world_->AddUserBytes(rec.user_bytes);
  return rec;
}

OpRecord Session::Publish(size_t d) {
  DocState& doc = *world_->docs()[d];
  Tracer* tracer = world_->tracer();
  const uint64_t revision = doc.revision + 1;
  // Input generation stays outside the operation's timing.
  const scengen::ScenarioDoc sd = world_->gen().MakeDoc(doc.index, revision);
  const csxa::xml::DomDocument dom = world_->gen().Materialize(sd);
  const std::string rules = world_->gen().RulesRevision(doc.index, revision);
  doc.revision = revision;
  doc.history.emplace_back(revision, revision);
  const uint64_t seq = doc.history.size() - 1;

  OpRecord rec;
  rec.kind = OpKind::kPublish;
  rec.op_id = world_->NextOpId();
  rec.doc = static_cast<uint32_t>(d);
  OpScope scope(rec.op_id);
  rec.start_ns = NowNs();
  doc.republishes_started.fetch_add(1, std::memory_order_acq_rel);
  doc.started.store(seq, std::memory_order_release);
  {
    ScopedSpan root(tracer, Layer::kOpPublish);
    Result<proxy::PublishReceipt> receipt = Status::Internal("not run");
    {
      ScopedSpan span(tracer, Layer::kPublish);
      receipt = world_->publisher(index_)->Publish(
          doc.doc_id, dom, rules, proxy::PublishOptions{.chunk_size = kChunkSize});
      span.set_ok(receipt.ok());
    }
    rec.ok = receipt.ok();
    if (rec.ok) {
      doc.key = receipt.value().key;
      rec.user_bytes =
          receipt.value().container_bytes + receipt.value().sealed_rules_bytes;
    } else {
      rec.error = receipt.status().ToString();
    }
    root.set_ok(rec.ok);
  }
  doc.completed.store(seq, std::memory_order_release);
  doc.republishes_completed.fetch_add(1, std::memory_order_acq_rel);
  rec.end_ns = NowNs();
  world_->AddUserBytes(rec.user_bytes);
  return rec;
}

// --- Phases -----------------------------------------------------------------

namespace {

template <typename Body>
std::vector<OpRecord> OnThreads(std::vector<Session>* sessions, Body body) {
  std::vector<std::vector<OpRecord>> per_session(sessions->size());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < sessions->size(); ++k) {
    threads.emplace_back(
        [&, k] { body(&(*sessions)[k], &per_session[k]); });
  }
  for (std::thread& t : threads) t.join();
  std::vector<OpRecord> out;
  for (auto& ops : per_session) {
    for (OpRecord& op : ops) out.push_back(std::move(op));
  }
  return out;
}

}  // namespace

std::vector<OpRecord> RunClosedLoop(std::vector<Session>* sessions,
                                    const Mix& mix, int64_t deadline_ns) {
  return OnThreads(sessions, [&](Session* s, std::vector<OpRecord>* out) {
    while (NowNs() < deadline_ns) out->push_back(s->RunNext(mix));
  });
}

std::vector<OpRecord> RunClosedLoop(std::vector<Session>* sessions,
                                    const Mix& mix, size_t ops) {
  return OnThreads(sessions, [&](Session* s, std::vector<OpRecord>* out) {
    for (size_t i = 0; i < ops; ++i) out->push_back(s->RunNext(mix));
  });
}

std::vector<OpRecord> RunSequential(std::vector<Session>* sessions,
                                    const Mix& mix, size_t ops) {
  std::vector<OpRecord> out;
  for (size_t i = 0; i < ops; ++i) {
    out.push_back((*sessions)[i % sessions->size()].RunNext(mix));
  }
  return out;
}

std::vector<OpRecord> RunSequential(std::vector<Session>* sessions,
                                    const Mix& mix, int64_t deadline_ns) {
  std::vector<OpRecord> out;
  for (size_t i = 0; NowNs() < deadline_ns; ++i) {
    out.push_back((*sessions)[i % sessions->size()].RunNext(mix));
  }
  return out;
}

// --- Oracle -----------------------------------------------------------------

Oracle::Oracle(const scengen::GeneratedScenario& gen) : gen_(gen) {
  for (const auto& [label, text] : gen.queries) {
    if (text.empty()) {
      queries_.emplace_back();
      continue;
    }
    auto parsed = csxa::xpath::ParsePath(text);
    CSXA_CHECK(parsed.ok());  // scenario queries are well-formed
    queries_.emplace_back(std::move(parsed).value());
  }
}

uint64_t Oracle::ExpectedHash(const DocState& doc, uint64_t content_rev,
                              uint64_t rules_rev, uint32_t subject,
                              uint32_t query) {
  const auto key =
      std::make_tuple(doc.index, content_rev, rules_rev, subject, query);
  auto hit = views_.find(key);
  if (hit != views_.end()) return hit->second;

  auto dom = docs_.find({doc.index, content_rev});
  if (dom == docs_.end()) {
    dom = docs_
              .emplace(std::make_pair(doc.index, content_rev),
                       gen_.Materialize(gen_.MakeDoc(doc.index, content_rev)))
              .first;
  }
  auto rules = rules_.find({doc.index, rules_rev});
  if (rules == rules_.end()) {
    auto parsed = csxa::core::RuleSet::ParseText(
        gen_.RulesRevision(doc.index, rules_rev));
    CSXA_CHECK(parsed.ok());  // generated rule texts are well-formed
    rules = rules_
                .emplace(std::make_pair(doc.index, rules_rev),
                         std::move(parsed).value())
                .first;
  }
  const csxa::xpath::PathExpr* qptr =
      queries_[query].has_value() ? &*queries_[query] : nullptr;
  auto view = csxa::core::BuildAuthorizedView(
      dom->second, rules->second.ForSubject(doc.subjects[subject]), qptr);
  CSXA_CHECK(view.ok());
  const uint64_t hash = HashView(view.value().Serialize());
  views_.emplace(key, hash);
  return hash;
}

bool Oracle::Check(const OpRecord& op, const DocState& doc) {
  if (op.kind != OpKind::kQuery) return op.ok;
  if (!op.ok || op.hi >= doc.history.size() || op.lo > op.hi) return false;
  for (uint64_t seq = op.lo; seq <= op.hi; ++seq) {
    const auto [content_rev, rules_rev] = doc.history[seq];
    if (ExpectedHash(doc, content_rev, rules_rev, op.subject, op.query) ==
        op.view_hash) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
