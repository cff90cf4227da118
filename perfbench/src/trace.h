#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded only from the benchmark's own code: around its calls
/// into the proxy (Terminal, Publisher), the PKI, the invalidation fan-out,
/// and from timing decorators it puts between the dsp::Service layers. Each
/// span has a name (its layer), start and end on the steady clock, the
/// span that caused it, and the id of the client operation it belongs to.
/// Spans outside a client operation (set-up publishes) are not recorded.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Every layer a span can be recorded for. The first three are the client
/// operations themselves (the roots of each operation's span tree).
enum class Layer : uint8_t {
  kOpQuery,
  kOpUpdate,
  kOpPublish,
  kProvision,   ///< proxy::Terminal::Provision (key fetch from the PKI)
  kSoe,         ///< proxy::Terminal::Query (APDU driver + card session)
  kPublish,     ///< proxy::Publisher::Publish
  kUpdate,      ///< proxy::Publisher::UpdateRules
  kRetry,       ///< dsp::RetryingClient
  kCache,       ///< dsp::CachingClient
  kDispatch,    ///< dsp::AsyncDispatcher (client side: queue wait + hand-off)
  kReplicate,   ///< dsp::ReplicatedService (on a dispatcher worker)
  kShard,       ///< dsp::ShardedService
  kStore,       ///< dsp::DspServer or dsp::DurableServer
  kFanout,      ///< dissem::InvalidationFanout::Publish
  kCount,
};

/// Short stable name of a layer ("dsp.cache", "soe", ...).
const char* LayerName(Layer layer);

inline bool IsOpLayer(Layer layer) {
  return layer == Layer::kOpQuery || layer == Layer::kOpUpdate ||
         layer == Layer::kOpPublish;
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for an operation root
  uint64_t op = 0;      ///< client operation the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kOpQuery;
  uint8_t dsp_op = 0;  ///< dsp::Op of the request, for dsp layers
  bool ok = true;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

class Tracer {
 public:
  /// The calling thread's position in the span tree: the innermost open
  /// span and the client operation it belongs to.
  struct Context {
    uint64_t span = 0;
    uint64_t op = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's context (thread-local, shared by all tracers).
  static Context& Current();

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Appends to the calling thread's buffer (no lock after first use).
  void Record(const Span& span);
  /// Every recorded span. Call only when no thread is recording.
  std::vector<Span> Collect() const;

 private:
  const uint64_t generation_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Opens a span on construction and records it on destruction; a no-op
/// with a null tracer or outside a client operation. While open, it is the
/// thread's current span, so nested calls become its children.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint8_t dsp_op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ok(bool ok) { span_.ok = ok; }

 private:
  Tracer* tracer_;
  Span span_;
  Tracer::Context saved_;
};

/// Starts a client operation on the calling thread: spans opened until
/// the guard dies belong to operation `op` (0 leaves tracing off).
class OpScope {
 public:
  explicit OpScope(uint64_t op) : saved_(Tracer::Current()) {
    Tracer::Current() = Tracer::Context{0, op};
  }
  ~OpScope() { Tracer::Current() = saved_; }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Tracer::Context saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
