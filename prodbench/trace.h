// Span recorder for the traced benchmark run.
//
// Spans are recorded around calls into each engine layer from the
// benchmark's own files (the engine itself is not instrumented). Each
// thread keeps its own span stack, so a span's parent is the innermost
// span open on the same thread. A span's self time is its duration minus
// the time its child spans cover; self times are accumulated per layer as
// spans close. The first spans of the run (a fixed budget) are also kept
// verbatim and written out at the end of the run.

#ifndef PRODBENCH_TRACE_H_
#define PRODBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

namespace prodbench {

enum class Layer : uint8_t {
  kInstance = 0,   ///< one top-level instance, StartProcess to Run() return
  kWfrtStart,      ///< Engine::StartProcess
  kWfrtRun,        ///< Engine::Run / RunSlice
  kPrograms,       ///< a bound program invocation
  kAtm,            ///< SubTxnRunner::Run / Compensate (incl. the site txn)
  kJournalAppend,  ///< Journal::Append
  kJournalFlush,   ///< Journal::Flush
  kFleetBatch,     ///< EngineFleet::RunBatch
  kCount
};

const char* LayerName(Layer layer);

/// Per-layer totals, summed over every thread.
struct LayerTotals {
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> count{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> total_ns{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_ns{};
};

uint64_t NowNs();

/// Turns span recording on or off for every thread. Only change it while
/// no other thread records.
void SetTracing(bool on);
bool Tracing();

/// Tags the spans this thread opens next with an instance number.
void SetTraceInstance(uint32_t instance);

/// Sums every thread's per-layer totals. Call while no thread records.
LayerTotals CollectTotals();

/// Clears every thread's totals (kept spans stay).
void ResetTotals();

/// Writes the kept spans as JSON lines; returns false on I/O error.
bool WriteSpans(const std::string& path);

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(Layer layer) {
    if (Tracing()) Open(layer);
  }
  ~Span() {
    if (open_) Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(Layer layer);
  void Close();

  bool open_ = false;
};

}  // namespace prodbench

#endif  // PRODBENCH_TRACE_H_
