// Layer instrumentation for the host-cost benchmark: an in-memory span
// recorder, decorators for the two host-API interfaces that record one
// span per call, and direct timing probes for the front-end layers
// (lang, translator, interp module cache).
//
// The decorators sit at the boundaries of a binding stack, so a wrapped
// stack is app -> tap -> cl2cu -> tap -> native mcuda (and the same for
// cu2cl). A wrapper's self time is its outer span minus the inner spans
// it caused. Spans are only recorded in traced passes; untraced passes
// build the stack without taps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"

namespace perfbench {

/// Where a tap sits in its stack.
enum class Boundary : uint8_t {
  kClNative,     // app -> native mocl (no wrapper)
  kCudaNative,   // app -> native mcuda (no wrapper)
  kCl2CuOuter,   // app -> cl2cu
  kCl2CuInner,   // cl2cu -> native mcuda
  kCu2ClOuter,   // app -> cu2cl
  kCu2ClInner,   // cu2cl -> native mocl
};
bool IsAppFacing(Boundary b);
bool IsNativeFacing(Boundary b);
/// Boundaries whose native side is mocl (else mcuda); native-facing only.
bool IsNativeCl(Boundary b);

struct Span {
  const char* name = nullptr;  // API entry point, a string literal
  Boundary boundary = Boundary::kClNative;
  int32_t parent = -1;  // index into the recorder's spans, -1 = top level
  uint32_t op = 0;      // op id within the run
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  // process CPU time (all threads); launches only
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
/// Process CPU time, all threads (getrusage).
struct CpuTimes {
  int64_t user_ns = 0;
  int64_t sys_ns = 0;
};
CpuTimes ReadCpuTimes();

/// Single-threaded recorder: API calls come from the app's host thread
/// only (worker-pool threads run inside launches and never call an API).
class SpanRecorder {
 public:
  void set_op(uint32_t op) { op_ = op; }
  int32_t Begin(const char* name, Boundary b, bool measure_cpu);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Tab-separated dump: op, index, parent, boundary, name, start, end.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t op_ = 0;
};

/// Decorators recording one span per call into `rec`, then forwarding to
/// `inner`. Neither owns its arguments.
std::unique_ptr<bridgecl::mocl::OpenClApi> TapOpenCl(
    bridgecl::mocl::OpenClApi& inner, SpanRecorder& rec, Boundary b);
std::unique_ptr<bridgecl::mcuda::CudaApi> TapCuda(
    bridgecl::mcuda::CudaApi& inner, SpanRecorder& rec, Boundary b);

/// Span names by role, for the per-layer analysis.
bool IsLaunchCall(std::string_view name);
bool IsSyncCall(std::string_view name);
bool IsClCopyCall(std::string_view name);
bool IsCudaCopyCall(std::string_view name);
inline constexpr std::string_view kClBuild = "clBuildProgram";
inline constexpr std::string_view kCudaRegister = "cudaRegisterModule";

/// One device source for the front-end probes.
struct ProbeSource {
  std::string text;
  bool cuda = false;
  /// Whole application (host + device) for the classifier and the host
  /// rewriter; CUDA sources only.
  std::string full_text;
};

/// Front-end layer timings over a set of sources (see README.md).
struct ProbeResult {
  double lex_ns_per_byte = 0;
  double parse_ns_per_byte = 0;
  double sema_ns_per_byte = 0;
  double print_ns_per_byte = 0;
  double cl2cu_us_p50 = 0;
  double cu2cl_us_p50 = 0;
  double classify_us_p50 = 0;
  double host_rewrite_us_p50 = 0;
  double compile_miss_us_p50 = 0;
  double compile_hit_us_p50 = 0;
};

/// Times lang::Lex / ParseTranslationUnit / Analyze / PrintTranslationUnit,
/// both translator directions, the classifier, the host rewriter and
/// interp::Module::Compile (a salted miss, then the same source as a hit)
/// on every source, `reps` times. `salt` keeps the miss probes from
/// hitting entries an earlier probe inserted.
ProbeResult ProbeFrontEnd(const std::vector<ProbeSource>& sources, int reps,
                          uint64_t salt);

/// Appends a uniquely named, unused helper function so the source (and
/// its translation) gets a fresh module-cache key.
std::string SaltSource(const std::string& source, bool cuda, uint64_t salt);

}  // namespace perfbench
