#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace prodbench {
namespace {

// Kept verbatim across all threads; later spans only feed the totals.
constexpr uint64_t kMaxKeptSpans = 50000;

struct KeptSpan {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t id;
  uint32_t parent;  ///< 0 = no parent on this thread
  uint32_t instance;
  Layer layer;
};

struct Frame {
  uint64_t start_ns;
  uint64_t child_ns;
  uint32_t id;
  Layer layer;
};

struct ThreadState {
  size_t index = 0;
  std::vector<Frame> stack;
  std::vector<KeptSpan> kept;
  LayerTotals totals;
  uint32_t next_id = 1;
  uint32_t instance = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_kept{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mu
thread_local ThreadState* t_state = nullptr;

// Thread states outlive their threads (the fleet joins its workers after
// every batch) so totals can be collected once the batch is over.
ThreadState* State() {
  if (t_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadState>());
    t_state = g_threads.back().get();
    t_state->index = g_threads.size() - 1;
  }
  return t_state;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kInstance: return "bench.instance";
    case Layer::kWfrtStart: return "wfrt.start";
    case Layer::kWfrtRun: return "wfrt.run";
    case Layer::kPrograms: return "programs.call";
    case Layer::kAtm: return "atm.subtxn";
    case Layer::kJournalAppend: return "wfjournal.append";
    case Layer::kJournalFlush: return "wfjournal.flush";
    case Layer::kFleetBatch: return "fleet.batch";
    case Layer::kCount: break;
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void SetTraceInstance(uint32_t instance) { State()->instance = instance; }

LayerTotals CollectTotals() {
  std::lock_guard<std::mutex> lock(g_mu);
  LayerTotals sum;
  for (const auto& t : g_threads) {
    for (size_t i = 0; i < sum.count.size(); ++i) {
      sum.count[i] += t->totals.count[i];
      sum.total_ns[i] += t->totals.total_ns[i];
      sum.self_ns[i] += t->totals.self_ns[i];
    }
  }
  return sum;
}

void ResetTotals() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) t->totals = LayerTotals{};
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : g_threads) {
    for (const KeptSpan& s : t->kept) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%u,\"parent\":%u,\"instance\":%u,"
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   t->index, s.id, s.parent, s.instance, LayerName(s.layer),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void Span::Open(Layer layer) {
  ThreadState* t = State();
  t->stack.push_back(Frame{NowNs(), 0, t->next_id++, layer});
  open_ = true;
}

void Span::Close() {
  uint64_t end = NowNs();
  ThreadState* t = State();
  Frame f = t->stack.back();
  t->stack.pop_back();
  uint64_t dur = end - f.start_ns;
  size_t l = static_cast<size_t>(f.layer);
  t->totals.count[l] += 1;
  t->totals.total_ns[l] += dur;
  t->totals.self_ns[l] += dur > f.child_ns ? dur - f.child_ns : 0;
  uint32_t parent = 0;
  if (!t->stack.empty()) {
    t->stack.back().child_ns += dur;
    parent = t->stack.back().id;
  }
  if (g_kept.load(std::memory_order_relaxed) < kMaxKeptSpans) {
    g_kept.fetch_add(1, std::memory_order_relaxed);
    t->kept.push_back(KeptSpan{f.start_ns, end, f.id, parent, t->instance,
                               f.layer});
  }
}

}  // namespace prodbench
