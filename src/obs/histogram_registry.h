// A stub of the retired latency-histogram registry. The trace
// (src/obs/trace.h) and the per-round timeline (src/obs/timeline.h) are the
// observability instruments; nothing records into this class.
//
// It is kept only because benchmark/watter_bench.cc includes this header
// (line 37) and calls HistogramRegistry::Global().Disable() (line 491).
// ROADMAP.md item C's benchmark-only step deletes both uses, then this file.
#ifndef WATTER_OBS_HISTOGRAM_REGISTRY_H_
#define WATTER_OBS_HISTOGRAM_REGISTRY_H_

namespace watter {
namespace obs {

class HistogramRegistry {
 public:
  static HistogramRegistry& Global() {
    static HistogramRegistry registry;
    return registry;
  }

  void Disable() {}
};

}  // namespace obs
}  // namespace watter

#endif  // WATTER_OBS_HISTOGRAM_REGISTRY_H_
