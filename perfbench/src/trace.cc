#include "trace.h"

#include <chrono>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generations{1};

// The calling thread's buffer in the tracer of generation `generation`
// (generations, not addresses, so a new tracer at a reused address never
// sees a dead tracer's buffer).
struct ThreadBuffer {
  uint64_t generation = 0;
  std::vector<Span>* spans = nullptr;
};
thread_local ThreadBuffer t_buffer;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOpQuery: return "op.query";
    case Layer::kOpUpdate: return "op.update";
    case Layer::kOpPublish: return "op.publish";
    case Layer::kProvision: return "pki.provision";
    case Layer::kSoe: return "soe";
    case Layer::kPublish: return "proxy.publish";
    case Layer::kUpdate: return "proxy.update";
    case Layer::kRetry: return "dsp.retry";
    case Layer::kCache: return "dsp.cache";
    case Layer::kDispatch: return "dsp.dispatch";
    case Layer::kReplicate: return "dsp.replicate";
    case Layer::kShard: return "dsp.shard";
    case Layer::kStore: return "dsp.store";
    case Layer::kFanout: return "dissem.fanout";
    case Layer::kCount: break;
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : generation_(g_generations.fetch_add(1)) {}

Tracer::Context& Tracer::Current() {
  thread_local Context context;
  return context;
}

void Tracer::Record(const Span& span) {
  if (t_buffer.generation != generation_) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    t_buffer = ThreadBuffer{generation_, buffer.get()};
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  t_buffer.spans->push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, Layer layer, uint8_t dsp_op)
    : tracer_(tracer), saved_(Tracer::Current()) {
  if (tracer_ == nullptr || saved_.op == 0) {
    tracer_ = nullptr;
    return;
  }
  span_.id = tracer_->NewId();
  span_.parent = saved_.span;
  span_.op = saved_.op;
  span_.layer = layer;
  span_.dsp_op = dsp_op;
  Tracer::Current() = Tracer::Context{span_.id, saved_.op};
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  Tracer::Current() = saved_;
  tracer_->Record(span_);
}

}  // namespace perfbench
