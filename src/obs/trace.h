// TraceRecorder: phase-level tracing with per-thread span buffers, exported
// as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//
// Design constraints (docs/OBSERVABILITY.md, "Overhead contract"):
//
//  - *Off is free.* Tracing is compiled in everywhere but disabled by
//    default; a disarmed WATTER_TRACE_SPAN costs one relaxed atomic load and
//    a predictable branch. No clock is read, no memory is touched — unless
//    the site passes a seconds slot, as the platform's round phases do
//    while the timeline samples them.
//  - *On never perturbs results.* Spans only read the steady clock and
//    append to a thread-local buffer; they never branch the traced code.
//    Every metric field is bitwise identical with and without tracing
//    (sim_parallel_determinism_test, TraceDeterminism axis).
//  - *Recording is lock-free.* Each thread owns a buffer it alone appends
//    to; the recorder's mutex is taken once per thread (registration) and
//    at export. Hot sites use WATTER_TRACE_SPAN_HOT, which drops spans
//    shorter than `hot_min_us` so per-batch oracle calls cannot flood the
//    trace with microsecond confetti (drops are counted and reported).
//
// Synchronization: appends are unsynchronized by design. Export/Snapshot
// must therefore be quiescent — called only when every traced thread has
// either exited or synchronized with the exporting thread (a thread join
// and ThreadPool's job handshake both establish the needed
// happens-before). The platform exports at the end of Run(), after its
// pools have drained; tests export after joining their threads.
//
// This header is deliberately self-contained (std only, fully inline) so
// low-level modules — the common ThreadPool, the geo oracles — can emit
// spans without a link-time dependency on the obs module.
#ifndef WATTER_OBS_TRACE_H_
#define WATTER_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace watter {
namespace obs {

/// One closed span on one thread. `name` must point at storage that
/// outlives the recorder — in practice a string literal from the macros.
struct SpanEvent {
  const char* name;
  double start_us;  ///< Microseconds since the recorder's epoch.
  double dur_us;
};

/// Process-global trace collector. All methods are thread-safe; see the
/// header comment for the quiescence requirement on Snapshot/Export/Clear.
class TraceRecorder {
 public:
  /// A span merged across buffers, for tests and in-process summaries.
  struct MergedEvent {
    std::string name;
    std::string thread_name;
    int tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  static TraceRecorder& Global() {
    static TraceRecorder* recorder = new TraceRecorder();
    return *recorder;
  }

  /// Arms span collection. Idempotent; leaves the hot-span floor as
  /// set_hot_min_us() last set it.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }

  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// The macros' fast-path check: one relaxed load, branch-predicted cold
  /// when tracing is off.
  static bool enabled() {
    return Global().enabled_.load(std::memory_order_relaxed);
  }

  /// Minimum duration a WATTER_TRACE_SPAN_HOT span must reach to be kept.
  double hot_min_us() const {
    return hot_min_us_.load(std::memory_order_relaxed);
  }
  void set_hot_min_us(double us) {
    hot_min_us_.store(us, std::memory_order_relaxed);
  }

  /// Names the calling thread's track in the exported trace ("main",
  /// "pool-worker-3"). Cheap; callable any time.
  void SetCurrentThreadName(const std::string& name) {
    CurrentBuffer()->name = name;
  }

  /// Microseconds since the recorder epoch (the clock the spans use).
  double NowMicros() const {
    return MicrosSinceEpoch(std::chrono::steady_clock::now());
  }

  /// `tp` as microseconds since the recorder epoch. Span starts must be
  /// converted from the originally captured time_point — reconstructing
  /// them as now-minus-duration reads the clock twice, and a preemption
  /// between the reads skews the start (even before the epoch).
  double MicrosSinceEpoch(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }

  /// Appends a closed span to the calling thread's buffer. Lock-free after
  /// the thread's first span. Public so RAII helpers outside this class can
  /// emit; prefer the macros.
  void EmitSpan(const char* name, double start_us, double dur_us) {
    ThreadBuffer* buffer = CurrentBuffer();
    if (buffer->events.size() >= kMaxEventsPerThread) {
      ++buffer->dropped;
      return;
    }
    buffer->events.push_back({name, start_us, dur_us});
  }

  /// Counts a hot span dropped by the duration floor (kept per thread so
  /// the report can say how much detail the floor hid).
  void CountHotDrop() { ++CurrentBuffer()->hot_dropped; }

  /// All recorded spans, merged. Quiescence required.
  std::vector<MergedEvent> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MergedEvent> merged;
    for (const auto& buffer : buffers_) {
      for (const SpanEvent& event : buffer->events) {
        merged.push_back({event.name, buffer->name, buffer->tid,
                          event.start_us, event.dur_us});
      }
    }
    return merged;
  }

  /// Spans dropped by the per-thread cap plus hot spans under the duration
  /// floor. Quiescence required.
  int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (const auto& buffer : buffers_) {
      total += buffer->dropped + buffer->hot_dropped;
    }
    return total;
  }

  /// Writes the Chrome trace-event JSON file: one complete ("X") event per
  /// span plus thread_name metadata per track, wrapped in the standard
  /// {"traceEvents": [...]} object. Returns false if the file cannot be
  /// written. Quiescence required.
  bool ExportChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    bool first = true;
    auto comma = [&] {
      if (!first) std::fprintf(f, ",\n");
      first = false;
    };
    comma();
    std::fprintf(f,
                 "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
                 "\"process_name\", \"args\": {\"name\": \"watter\"}}");
    int64_t dropped_total = 0;
    for (const auto& buffer : buffers_) {
      dropped_total += buffer->dropped + buffer->hot_dropped;
      comma();
      std::fprintf(f,
                   "{\"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"name\": "
                   "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                   buffer->tid,
                   buffer->name.empty() ? "thread" : buffer->name.c_str());
      for (const SpanEvent& event : buffer->events) {
        comma();
        std::fprintf(f,
                     "{\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"name\": "
                     "\"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                     buffer->tid, event.name, event.start_us, event.dur_us);
      }
    }
    std::fprintf(f, "\n],\n\"otherData\": {\"dropped_events\": %lld}}\n",
                 static_cast<long long>(dropped_total));
    std::fclose(f);
    return true;
  }

  /// Drops recorded spans and drop counts, keeping thread registrations
  /// (other threads' cached buffer pointers stay valid). Quiescence
  /// required. Intended for tests; production runs accumulate.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
      buffer->events.clear();
      buffer->dropped = 0;
      buffer->hot_dropped = 0;
    }
  }

 private:
  struct ThreadBuffer {
    std::vector<SpanEvent> events;
    std::string name;
    int tid = 0;
    int64_t dropped = 0;
    int64_t hot_dropped = 0;
  };

  // Bounds one thread's buffer (~24 bytes/event, so <= ~100 MB worst case
  // per thread); overflow increments `dropped` instead of growing.
  static constexpr size_t kMaxEventsPerThread = size_t{1} << 22;

  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// The calling thread's buffer, registered under the mutex on first use
  /// and cached thread-locally afterwards. Buffers are never deallocated
  /// (threads may exit before export), so the cache cannot dangle.
  ThreadBuffer* CurrentBuffer() {
    static thread_local ThreadBuffer* t_buffer = nullptr;
    if (t_buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      t_buffer = buffers_.back().get();
      t_buffer->tid = static_cast<int>(buffers_.size());
    }
    return t_buffer;
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<double> hot_min_us_{20.0};
  mutable std::mutex mu_;  // Guards buffers_ (the vector, not the appends).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records [construction, destruction) on the calling thread's
/// track when tracing is armed, and adds the same interval, in seconds, to
/// `*seconds` whenever `seconds` is not null, armed or not. So one span
/// both names and times a phase. With tracing off and no `seconds` it
/// reads no clock. `name` must be a string literal.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, double* seconds = nullptr)
      : seconds_(seconds) {
    if (TraceRecorder::enabled()) name_ = name;
    if (name_ != nullptr || seconds_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~ScopedSpan() {
    if (name_ == nullptr && seconds_ == nullptr) return;
    const std::chrono::steady_clock::duration elapsed =
        std::chrono::steady_clock::now() - start_;
    if (seconds_ != nullptr) {
      *seconds_ += std::chrono::duration<double>(elapsed).count();
    }
    if (name_ != nullptr) {
      TraceRecorder& recorder = TraceRecorder::Global();
      recorder.EmitSpan(
          name_, recorder.MicrosSinceEpoch(start_),
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  double* seconds_;
  std::chrono::steady_clock::time_point start_;
};

/// Like ScopedSpan but for hot call sites: spans shorter than the
/// recorder's `hot_min_us` floor are dropped (and counted) so per-batch
/// oracle calls cannot flood the trace. The floor trades trace size for
/// detail — every *slow* instance still appears.
class ScopedHotSpan {
 public:
  explicit ScopedHotSpan(const char* name) {
    if (!TraceRecorder::enabled()) return;
    name_ = name;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedHotSpan() {
    if (name_ == nullptr) return;
    TraceRecorder& recorder = TraceRecorder::Global();
    double dur_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    if (dur_us < recorder.hot_min_us()) {
      recorder.CountHotDrop();
      return;
    }
    recorder.EmitSpan(name_, recorder.MicrosSinceEpoch(start_), dur_us);
  }

  ScopedHotSpan(const ScopedHotSpan&) = delete;
  ScopedHotSpan& operator=(const ScopedHotSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

#define WATTER_TRACE_CONCAT_INNER(a, b) a##b
#define WATTER_TRACE_CONCAT(a, b) WATTER_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named by the first argument (a
/// string literal). An optional second argument, a `double*`, receives the
/// scope's seconds whether or not tracing is armed (ScopedSpan).
#define WATTER_TRACE_SPAN(...)                                      \
  ::watter::obs::ScopedSpan WATTER_TRACE_CONCAT(watter_trace_span_, \
                                                __LINE__)(__VA_ARGS__)

/// WATTER_TRACE_SPAN for hot call sites (per-batch, per-job): spans under
/// the recorder's duration floor are dropped and counted.
#define WATTER_TRACE_SPAN_HOT(name)                                    \
  ::watter::obs::ScopedHotSpan WATTER_TRACE_CONCAT(watter_trace_span_, \
                                                   __LINE__)(name)

}  // namespace obs
}  // namespace watter

#endif  // WATTER_OBS_TRACE_H_
