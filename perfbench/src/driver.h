#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

/// \file driver.h
/// \brief Workloads, the client sessions that replay them against a Stack,
/// and the DOM oracle every delivered view is checked against.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/rule.h"
#include "crypto/keys.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "scengen/spec.h"
#include "stack.h"
#include "xml/dom.h"
#include "xpath/ast.h"

namespace perfbench {

/// Client sessions of every workload: a closed loop of two card holders.
inline constexpr size_t kSessions = 2;

struct WorkloadDef {
  std::string name;
  csxa::scengen::ScenarioSpec spec;  ///< spec.seed derives from --seed
  Backend backend = Backend::kMemory;
  /// The closed loop is read-only: owner-side latencies come from a
  /// fixed-count owner phase after the timed loop instead.
  bool owner_phase = false;
  /// Warm-up operations per session before anything is timed.
  size_t warmup_ops = 0;
  /// Operations of the deterministic replay that compares the traced and
  /// untraced stacks.
  size_t replay_ops = 0;
};

/// The workload `name` with inputs derived from `seed`, if it exists.
std::optional<WorkloadDef> FindWorkload(const std::string& name,
                                        uint64_t seed);
std::vector<std::string> WorkloadNames();

/// Operation mix of one phase; the remainder are queries.
struct Mix {
  double update_fraction = 0;
  double publish_fraction = 0;
};

enum class OpKind : uint8_t { kQuery, kUpdate, kPublish };

struct OpRecord {
  OpKind kind = OpKind::kQuery;
  uint64_t op_id = 0;
  uint32_t doc = 0;
  uint32_t subject = 0;
  uint32_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Queries: the document's write sequence numbers that may be visible —
  /// from the last write completed at start to the last started at end.
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool ok = false;
  /// Attempts beyond the first, made because the owner republished the
  /// document (rotating its key) while the query ran.
  uint32_t requeries = 0;
  uint64_t view_hash = 0;
  /// Queries: the card session's statistics and the terminal's counts.
  csxa::soe::SessionStats card;
  uint64_t terminal_dsp_round_trips = 0;
  uint64_t apdu_exchanges = 0;
  /// Writes: container plus sealed-rule bytes handed to the DSP.
  uint64_t user_bytes = 0;
  std::string error;

  double wall_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// One document of the fleet and its revision history.
struct DocState {
  size_t index = 0;
  std::string doc_id;
  std::vector<std::string> subjects;  ///< query-safe (stable) subjects
  size_t owner = 0;                   ///< session that writes it
  csxa::crypto::SymmetricKey key;
  uint64_t revision = 0;
  /// (content revision, rules revision) after each write; [0] = initial.
  /// Appended only by the owner; read by others only after the run.
  std::vector<std::pair<uint64_t, uint64_t>> history{{0, 0}};
  std::atomic<uint64_t> started{0};    ///< last write seq started
  std::atomic<uint64_t> completed{0};  ///< last write seq completed
  std::atomic<uint64_t> republishes_started{0};
  std::atomic<uint64_t> republishes_completed{0};
};

/// A deployed stack plus the published fleet and its owners.
class World {
 public:
  World(Backend backend, const csxa::scengen::GeneratedScenario* gen,
        uint64_t seed, Tracer* tracer);

  /// Publishes the fleet: each session's publisher publishes its own part.
  csxa::Status Publish();

  const csxa::scengen::GeneratedScenario& gen() const { return *gen_; }
  Stack& stack() { return stack_; }
  const Stack& stack() const { return stack_; }
  Tracer* tracer() { return stack_.tracer(); }
  std::vector<std::unique_ptr<DocState>>& docs() { return docs_; }
  csxa::proxy::Publisher* publisher(size_t session) {
    return publishers_[session].get();
  }
  uint64_t NextOpId() { return next_op_.fetch_add(1); }
  /// Container plus sealed-rule bytes published, set-up included.
  uint64_t user_bytes() const { return user_bytes_.load(); }
  void AddUserBytes(uint64_t n) { user_bytes_.fetch_add(n); }

 private:
  const csxa::scengen::GeneratedScenario* gen_;
  Stack stack_;
  std::vector<std::unique_ptr<csxa::proxy::Publisher>> publishers_;
  std::vector<std::unique_ptr<DocState>> docs_;
  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> user_bytes_{0};
};

/// One client session: draws operations from its own seeded stream and
/// runs them against the world. Writes go only to the session's own part
/// of the fleet; queries go to the whole fleet.
class Session {
 public:
  Session(World* world, size_t index, uint64_t seed);

  /// Draws the next operation from `mix` and runs it.
  OpRecord RunNext(const Mix& mix);

 private:
  OpRecord Query(size_t doc, size_t subject, size_t query);
  OpRecord Update(size_t doc);
  OpRecord Publish(size_t doc);

  World* world_;
  size_t index_;
  csxa::Rng rng_;
  std::vector<size_t> own_;
  /// One terminal per card holder the session impersonates.
  std::map<std::string, csxa::proxy::Terminal> terminals_;
};

/// Runs every session on its own thread until `deadline_ns`.
std::vector<OpRecord> RunClosedLoop(std::vector<Session>* sessions,
                                    const Mix& mix, int64_t deadline_ns);
/// The same, for `ops` operations per session.
std::vector<OpRecord> RunClosedLoop(std::vector<Session>* sessions,
                                    const Mix& mix, size_t ops);
/// Runs `ops` operations on the calling thread, sessions taking turns, so
/// that the same seed gives the same sequence and the same counts.
std::vector<OpRecord> RunSequential(std::vector<Session>* sessions,
                                    const Mix& mix, size_t ops);
/// The same, until `deadline_ns`.
std::vector<OpRecord> RunSequential(std::vector<Session>* sessions,
                                    const Mix& mix, int64_t deadline_ns);

/// The DOM reference: the view core::BuildAuthorizedView gives for a
/// (document revision, rules revision, subject, query), memoized.
class Oracle {
 public:
  explicit Oracle(const csxa::scengen::GeneratedScenario& gen);

  /// True when `op`'s view is the reference view of some state the
  /// document passed through while the query ran.
  bool Check(const OpRecord& op, const DocState& doc);

 private:
  uint64_t ExpectedHash(const DocState& doc, uint64_t content_rev,
                        uint64_t rules_rev, uint32_t subject, uint32_t query);

  const csxa::scengen::GeneratedScenario& gen_;
  std::vector<std::optional<csxa::xpath::PathExpr>> queries_;
  std::map<std::pair<size_t, uint64_t>, csxa::xml::DomDocument> docs_;
  std::map<std::pair<size_t, uint64_t>, csxa::core::RuleSet> rules_;
  std::map<std::tuple<size_t, uint64_t, uint64_t, uint32_t, uint32_t>,
           uint64_t>
      views_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
