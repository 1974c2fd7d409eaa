#include "layers.h"

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "interp/module.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/sema.h"
#include "stats.h"
#include "translator/classifier.h"
#include "translator/host_rewriter.h"
#include "translator/translate.h"

namespace perfbench {

using bridgecl::Status;
using bridgecl::StatusOr;
namespace mocl = bridgecl::mocl;
namespace mcuda = bridgecl::mcuda;

bool IsAppFacing(Boundary b) {
  return b != Boundary::kCl2CuInner && b != Boundary::kCu2ClInner;
}
bool IsNativeFacing(Boundary b) {
  return b != Boundary::kCl2CuOuter && b != Boundary::kCu2ClOuter;
}
bool IsNativeCl(Boundary b) {
  return b == Boundary::kClNative || b == Boundary::kCu2ClInner;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes ReadCpuTimes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return int64_t{tv.tv_sec} * 1000000000 + int64_t{tv.tv_usec} * 1000;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime)};
}

namespace {
int64_t ProcessCpuNs() {
  const CpuTimes t = ReadCpuTimes();
  return t.user_ns + t.sys_ns;
}
}  // namespace

int32_t SpanRecorder::Begin(const char* name, Boundary b, bool measure_cpu) {
  Span s;
  s.name = name;
  s.boundary = b;
  s.parent = current_;
  s.op = op_;
  s.cpu_ns = measure_cpu ? ProcessCpuNs() : 0;
  s.start_ns = NowNs();
  spans_.push_back(s);
  current_ = static_cast<int32_t>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::End(int32_t index) {
  Span& s = spans_[index];
  s.end_ns = NowNs();
  if (s.cpu_ns != 0) s.cpu_ns = ProcessCpuNs() - s.cpu_ns;
  current_ = s.parent;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tspan\tparent\tboundary\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%d\t%d\t%s\t%" PRId64 "\t%" PRId64 "\n", s.op,
                 i, s.parent, static_cast<int>(s.boundary), s.name,
                 s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

bool IsLaunchCall(std::string_view n) {
  return n == "clEnqueueNDRangeKernel" || n == "cudaLaunchKernel";
}
bool IsSyncCall(std::string_view n) {
  return n == "clFinish" || n == "clWaitForEvents" ||
         n == "cudaDeviceSynchronize" || n == "cudaStreamSynchronize" ||
         n == "cudaEventSynchronize";
}
bool IsClCopyCall(std::string_view n) {
  return n == "clEnqueueWriteBuffer" || n == "clEnqueueReadBuffer" ||
         n == "clEnqueueCopyBuffer" || n == "clEnqueueWriteImage" ||
         n == "clEnqueueReadImage";
}
bool IsCudaCopyCall(std::string_view n) {
  return n == "cudaMemcpy" || n == "cudaMemcpyAsync" ||
         n == "cudaMemcpyToSymbol" || n == "cudaMemcpyFromSymbol" ||
         n == "cudaMemcpyToArray";
}

namespace {

// Shared span bracket for both decorators. Launches at the native
// boundary also record process CPU time (pool.cpu_util).
class Tap {
 protected:
  Tap(SpanRecorder& rec, Boundary b) : rec_(rec), b_(b) {}

  template <typename F>
  auto Call(const char* name, F&& f) const {
    int32_t s = rec_.Begin(name, b_, IsLaunchCall(name) && IsNativeFacing(b_));
    auto r = f();
    rec_.End(s);
    return r;
  }

 private:
  SpanRecorder& rec_;
  Boundary b_;
};

using mocl::ClDeviceAttr;
using mocl::ClEvent;
using mocl::ClImageFormat;
using mocl::ClKernel;
using mocl::ClMem;
using mocl::ClProgram;
using mocl::ClQueue;
using mocl::ClSamplerDesc;
using mocl::MemFlags;

class ClTap final : public mocl::OpenClApi, Tap {
 public:
  ClTap(OpenClApi& inner, SpanRecorder& rec, Boundary b)
      : Tap(rec, b), in_(inner) {}

  std::string PlatformName() const override {
    return Call("clGetPlatformInfo", [&] { return in_.PlatformName(); });
  }
  StatusOr<std::string> QueryDeviceInfoString(ClDeviceAttr a) override {
    return Call("clGetDeviceInfo",
                [&] { return in_.QueryDeviceInfoString(a); });
  }
  StatusOr<uint64_t> QueryDeviceInfoUint(ClDeviceAttr a) override {
    return Call("clGetDeviceInfo", [&] { return in_.QueryDeviceInfoUint(a); });
  }
  StatusOr<int> CreateSubDevices(int n) override {
    return Call("clCreateSubDevices", [&] { return in_.CreateSubDevices(n); });
  }
  StatusOr<ClMem> CreateBuffer(MemFlags f, size_t size,
                               const void* host) override {
    return Call("clCreateBuffer",
                [&] { return in_.CreateBuffer(f, size, host); });
  }
  Status ReleaseMemObject(ClMem m) override {
    return Call("clReleaseMemObject", [&] { return in_.ReleaseMemObject(m); });
  }
  Status EnqueueWriteBuffer(ClMem m, size_t off, size_t size,
                            const void* src) override {
    return Call("clEnqueueWriteBuffer",
                [&] { return in_.EnqueueWriteBuffer(m, off, size, src); });
  }
  Status EnqueueReadBuffer(ClMem m, size_t off, size_t size,
                           void* dst) override {
    return Call("clEnqueueReadBuffer",
                [&] { return in_.EnqueueReadBuffer(m, off, size, dst); });
  }
  Status EnqueueCopyBuffer(ClMem s, ClMem d, size_t so, size_t dof,
                           size_t size) override {
    return Call("clEnqueueCopyBuffer",
                [&] { return in_.EnqueueCopyBuffer(s, d, so, dof, size); });
  }
  StatusOr<ClMem> CreateImage2D(MemFlags f, const ClImageFormat& fmt,
                                size_t w, size_t h,
                                const void* host) override {
    return Call("clCreateImage2D",
                [&] { return in_.CreateImage2D(f, fmt, w, h, host); });
  }
  StatusOr<ClMem> CreateImage1D(MemFlags f, const ClImageFormat& fmt,
                                size_t w, const void* host) override {
    return Call("clCreateImage1D",
                [&] { return in_.CreateImage1D(f, fmt, w, host); });
  }
  StatusOr<ClMem> CreateImage1DFromBuffer(const ClImageFormat& fmt, size_t w,
                                          ClMem buf) override {
    return Call("clCreateImage1DBuffer",
                [&] { return in_.CreateImage1DFromBuffer(fmt, w, buf); });
  }
  Status EnqueueWriteImage(ClMem img, const void* src) override {
    return Call("clEnqueueWriteImage",
                [&] { return in_.EnqueueWriteImage(img, src); });
  }
  Status EnqueueReadImage(ClMem img, void* dst) override {
    return Call("clEnqueueReadImage",
                [&] { return in_.EnqueueReadImage(img, dst); });
  }
  StatusOr<uint64_t> CreateSampler(const ClSamplerDesc& d) override {
    return Call("clCreateSampler", [&] { return in_.CreateSampler(d); });
  }
  StatusOr<ClProgram> CreateProgramWithSource(
      const std::string& source) override {
    return Call("clCreateProgramWithSource",
                [&] { return in_.CreateProgramWithSource(source); });
  }
  Status BuildProgram(ClProgram p) override {
    return Call(kClBuild.data(), [&] { return in_.BuildProgram(p); });
  }
  StatusOr<std::string> GetProgramBuildLog(ClProgram p) override {
    return Call("clGetProgramBuildInfo",
                [&] { return in_.GetProgramBuildLog(p); });
  }
  StatusOr<ClKernel> CreateKernel(ClProgram p,
                                  const std::string& name) override {
    return Call("clCreateKernel", [&] { return in_.CreateKernel(p, name); });
  }
  Status SetKernelArg(ClKernel k, int i, size_t size,
                      const void* value) override {
    return Call("clSetKernelArg",
                [&] { return in_.SetKernelArg(k, i, size, value); });
  }
  Status EnqueueNDRangeKernel(ClKernel k, int dim, const size_t* gws,
                              const size_t* lws) override {
    return Call("clEnqueueNDRangeKernel", [&] {
      return in_.EnqueueNDRangeKernel(k, dim, gws, lws);
    });
  }
  Status Finish() override {
    return Call("clFinish", [&] { return in_.Finish(); });
  }
  StatusOr<ClQueue> CreateCommandQueue(uint64_t props) override {
    return Call("clCreateCommandQueue",
                [&] { return in_.CreateCommandQueue(props); });
  }
  Status ReleaseCommandQueue(ClQueue q) override {
    return Call("clReleaseCommandQueue",
                [&] { return in_.ReleaseCommandQueue(q); });
  }
  Status EnqueueWriteBufferOn(ClQueue q, ClMem m, size_t off, size_t size,
                              const void* src, bool blocking,
                              std::span<const ClEvent> wait,
                              ClEvent* ev) override {
    return Call("clEnqueueWriteBuffer", [&] {
      return in_.EnqueueWriteBufferOn(q, m, off, size, src, blocking, wait,
                                      ev);
    });
  }
  Status EnqueueReadBufferOn(ClQueue q, ClMem m, size_t off, size_t size,
                             void* dst, bool blocking,
                             std::span<const ClEvent> wait,
                             ClEvent* ev) override {
    return Call("clEnqueueReadBuffer", [&] {
      return in_.EnqueueReadBufferOn(q, m, off, size, dst, blocking, wait,
                                     ev);
    });
  }
  Status EnqueueCopyBufferOn(ClQueue q, ClMem s, ClMem d, size_t so,
                             size_t dof, size_t size,
                             std::span<const ClEvent> wait,
                             ClEvent* ev) override {
    return Call("clEnqueueCopyBuffer", [&] {
      return in_.EnqueueCopyBufferOn(q, s, d, so, dof, size, wait, ev);
    });
  }
  Status EnqueueNDRangeKernelOn(ClQueue q, ClKernel k, int dim,
                                const size_t* gws, const size_t* lws,
                                std::span<const ClEvent> wait,
                                ClEvent* ev) override {
    return Call("clEnqueueNDRangeKernel", [&] {
      return in_.EnqueueNDRangeKernelOn(q, k, dim, gws, lws, wait, ev);
    });
  }
  StatusOr<ClEvent> EnqueueMarkerWithWaitList(
      ClQueue q, std::span<const ClEvent> wait) override {
    return Call("clEnqueueMarkerWithWaitList",
                [&] { return in_.EnqueueMarkerWithWaitList(q, wait); });
  }
  StatusOr<ClEvent> EnqueueBarrier(ClQueue q) override {
    return Call("clEnqueueBarrierWithWaitList",
                [&] { return in_.EnqueueBarrier(q); });
  }
  Status Flush(ClQueue q) override {
    return Call("clFlush", [&] { return in_.Flush(q); });
  }
  Status Finish(ClQueue q) override {
    return Call("clFinish", [&] { return in_.Finish(q); });
  }
  Status WaitForEvents(std::span<const ClEvent> events) override {
    return Call("clWaitForEvents", [&] { return in_.WaitForEvents(events); });
  }
  Status ReleaseEvent(ClEvent e) override {
    return Call("clReleaseEvent", [&] { return in_.ReleaseEvent(e); });
  }
  StatusOr<ClEvent> EnqueueNDRangeKernelWithEvent(ClKernel k, int dim,
                                                  const size_t* gws,
                                                  const size_t* lws) override {
    return Call("clEnqueueNDRangeKernel", [&] {
      return in_.EnqueueNDRangeKernelWithEvent(k, dim, gws, lws);
    });
  }
  Status GetEventProfiling(ClEvent e, double* queued,
                           double* end) override {
    return Call("clGetEventProfilingInfo",
                [&] { return in_.GetEventProfiling(e, queued, end); });
  }
  Status SetProgramKernelRegisters(ClProgram p, const std::string& k,
                                   int regs) override {
    return Call("bridgeclSetKernelRegisters",
                [&] { return in_.SetProgramKernelRegisters(p, k, regs); });
  }
  double NowUs() const override {
    return Call("bridgeclNowUs", [&] { return in_.NowUs(); });
  }
  double BuildTimeUs() const override {
    return Call("bridgeclBuildTimeUs", [&] { return in_.BuildTimeUs(); });
  }
  bridgecl::trace::TraceRecorder* Tracer() const override {
    return in_.Tracer();
  }
  Status Snapshot(const std::string& path) override {
    return Call("bridgeclSnapshot", [&] { return in_.Snapshot(path); });
  }
  Status Restore(const std::string& path) override {
    return Call("bridgeclRestore", [&] { return in_.Restore(path); });
  }

 private:
  OpenClApi& in_;
};

using mcuda::ChannelDesc;
using mcuda::CudaDeviceProps;
using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using bridgecl::simgpu::Dim3;

class CudaTap final : public mcuda::CudaApi, Tap {
 public:
  CudaTap(CudaApi& inner, SpanRecorder& rec, Boundary b)
      : Tap(rec, b), in_(inner) {}

  Status RegisterModule(const std::string& source) override {
    return Call(kCudaRegister.data(),
                [&] { return in_.RegisterModule(source); });
  }
  StatusOr<void*> Malloc(size_t size) override {
    return Call("cudaMalloc", [&] { return in_.Malloc(size); });
  }
  Status Free(void* p) override {
    return Call("cudaFree", [&] { return in_.Free(p); });
  }
  Status Memcpy(void* dst, const void* src, size_t size,
                MemcpyKind kind) override {
    return Call("cudaMemcpy",
                [&] { return in_.Memcpy(dst, src, size, kind); });
  }
  Status MemcpyToSymbol(const std::string& sym, const void* src, size_t size,
                        size_t off) override {
    return Call("cudaMemcpyToSymbol",
                [&] { return in_.MemcpyToSymbol(sym, src, size, off); });
  }
  Status MemcpyFromSymbol(void* dst, const std::string& sym, size_t size,
                          size_t off) override {
    return Call("cudaMemcpyFromSymbol",
                [&] { return in_.MemcpyFromSymbol(dst, sym, size, off); });
  }
  StatusOr<std::pair<size_t, size_t>> MemGetInfo() override {
    return Call("cudaMemGetInfo", [&] { return in_.MemGetInfo(); });
  }
  Status LaunchKernel(const std::string& k, Dim3 grid, Dim3 block,
                      size_t shared, std::span<const LaunchArg> args) override {
    return Call("cudaLaunchKernel", [&] {
      return in_.LaunchKernel(k, grid, block, shared, args);
    });
  }
  Status DeviceSynchronize() override {
    return Call("cudaDeviceSynchronize",
                [&] { return in_.DeviceSynchronize(); });
  }
  StatusOr<void*> StreamCreate() override {
    return Call("cudaStreamCreate", [&] { return in_.StreamCreate(); });
  }
  Status StreamDestroy(void* s) override {
    return Call("cudaStreamDestroy", [&] { return in_.StreamDestroy(s); });
  }
  Status StreamSynchronize(void* s) override {
    return Call("cudaStreamSynchronize",
                [&] { return in_.StreamSynchronize(s); });
  }
  Status MemcpyAsync(void* dst, const void* src, size_t size, MemcpyKind kind,
                     void* stream) override {
    return Call("cudaMemcpyAsync", [&] {
      return in_.MemcpyAsync(dst, src, size, kind, stream);
    });
  }
  Status LaunchKernelOnStream(const std::string& k, Dim3 grid, Dim3 block,
                              size_t shared, std::span<const LaunchArg> args,
                              void* stream) override {
    return Call("cudaLaunchKernel", [&] {
      return in_.LaunchKernelOnStream(k, grid, block, shared, args, stream);
    });
  }
  Status EventRecordOnStream(void* e, void* s) override {
    return Call("cudaEventRecord",
                [&] { return in_.EventRecordOnStream(e, s); });
  }
  Status StreamWaitEvent(void* s, void* e) override {
    return Call("cudaStreamWaitEvent",
                [&] { return in_.StreamWaitEvent(s, e); });
  }
  Status EventSynchronize(void* e) override {
    return Call("cudaEventSynchronize",
                [&] { return in_.EventSynchronize(e); });
  }
  StatusOr<CudaDeviceProps> GetDeviceProperties() override {
    return Call("cudaGetDeviceProperties",
                [&] { return in_.GetDeviceProperties(); });
  }
  Status BindTexture(const std::string& t, void* p, size_t bytes,
                     const ChannelDesc& d, bool normalized) override {
    return Call("cudaBindTexture",
                [&] { return in_.BindTexture(t, p, bytes, d, normalized); });
  }
  Status BindTexture2D(const std::string& t, void* p, size_t w, size_t h,
                       size_t pitch, const ChannelDesc& d) override {
    return Call("cudaBindTexture2D",
                [&] { return in_.BindTexture2D(t, p, w, h, pitch, d); });
  }
  StatusOr<void*> MallocArray(const ChannelDesc& d, size_t w,
                              size_t h) override {
    return Call("cudaMallocArray", [&] { return in_.MallocArray(d, w, h); });
  }
  Status MemcpyToArray(void* a, const void* src, size_t bytes) override {
    return Call("cudaMemcpyToArray",
                [&] { return in_.MemcpyToArray(a, src, bytes); });
  }
  Status BindTextureToArray(const std::string& t, void* a, bool linear,
                            bool normalized) override {
    return Call("cudaBindTextureToArray", [&] {
      return in_.BindTextureToArray(t, a, linear, normalized);
    });
  }
  Status UnbindTexture(const std::string& t) override {
    return Call("cudaUnbindTexture", [&] { return in_.UnbindTexture(t); });
  }
  StatusOr<void*> EventCreate() override {
    return Call("cudaEventCreate", [&] { return in_.EventCreate(); });
  }
  Status EventRecord(void* e) override {
    return Call("cudaEventRecord", [&] { return in_.EventRecord(e); });
  }
  StatusOr<double> EventElapsedUs(void* a, void* b) override {
    return Call("cudaEventElapsedTime",
                [&] { return in_.EventElapsedUs(a, b); });
  }
  Status EventDestroy(void* e) override {
    return Call("cudaEventDestroy", [&] { return in_.EventDestroy(e); });
  }
  Status SetKernelRegisters(const std::string& k, int regs) override {
    return Call("bridgeclSetKernelRegisters",
                [&] { return in_.SetKernelRegisters(k, regs); });
  }
  double NowUs() const override {
    return Call("bridgeclNowUs", [&] { return in_.NowUs(); });
  }
  bridgecl::trace::TraceRecorder* Tracer() const override {
    return in_.Tracer();
  }
  Status Snapshot(const std::string& path) override {
    return Call("bridgeclSnapshot", [&] { return in_.Snapshot(path); });
  }
  Status Restore(const std::string& path) override {
    return Call("bridgeclRestore", [&] { return in_.Restore(path); });
  }

 private:
  CudaApi& in_;
};

}  // namespace

std::unique_ptr<mocl::OpenClApi> TapOpenCl(mocl::OpenClApi& inner,
                                           SpanRecorder& rec, Boundary b) {
  return std::make_unique<ClTap>(inner, rec, b);
}

std::unique_ptr<mcuda::CudaApi> TapCuda(mcuda::CudaApi& inner,
                                        SpanRecorder& rec, Boundary b) {
  return std::make_unique<CudaTap>(inner, rec, b);
}

std::string SaltSource(const std::string& source, bool cuda, uint64_t salt) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "\n%sint perfbench_salt_%016" PRIx64
                "(int x) { return x + 1; }\n",
                cuda ? "__device__ " : "", salt);
  return source + buf;
}

ProbeResult ProbeFrontEnd(const std::vector<ProbeSource>& sources, int reps,
                          uint64_t salt) {
  namespace lang = bridgecl::lang;
  namespace translator = bridgecl::translator;
  namespace interp = bridgecl::interp;
  using bridgecl::DiagnosticEngine;

  // Per-rep stage totals (ns, bytes): the median rep is reported.
  std::vector<double> lex, parse, sema, print;
  std::vector<double> cl2cu, cu2cl, classify, rewrite, miss, hit;
  for (int rep = 0; rep < reps; ++rep) {
    double ns[4] = {0, 0, 0, 0};
    double bytes[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < sources.size(); ++i) {
      const ProbeSource& src = sources[i];
      const lang::Dialect dialect =
          src.cuda ? lang::Dialect::kCUDA : lang::Dialect::kOpenCL;
      const double size = static_cast<double>(src.text.size());
      DiagnosticEngine diags;
      int64_t t0 = NowNs();
      bool lexed = lang::Lex(src.text, diags).ok();
      int64_t t1 = NowNs();
      if (lexed) {
        ns[0] += t1 - t0;
        bytes[0] += size;
      }
      auto tu = lang::ParseTranslationUnit(src.text, {dialect}, diags);
      int64_t t2 = NowNs();
      if (tu.ok()) {
        ns[1] += t2 - t1;
        bytes[1] += size;
        bool analyzed = lang::Analyze(**tu, {dialect}, diags).ok();
        int64_t t3 = NowNs();
        if (analyzed) {
          ns[2] += t3 - t2;
          bytes[2] += size;
          (void)lang::PrintTranslationUnit(**tu, {dialect});
          ns[3] += NowNs() - t3;
          bytes[3] += size;
        }
      }

      int64_t t4 = NowNs();
      if (src.cuda) {
        (void)translator::TranslateCudaToOpenCl(src.text, diags);
        int64_t t5 = NowNs();
        cu2cl.push_back((t5 - t4) * 1e-3);
        (void)translator::ClassifyCudaApplication(src.full_text);
        int64_t t6 = NowNs();
        classify.push_back((t6 - t5) * 1e-3);
        (void)translator::RewriteCudaHostCode(src.full_text, diags);
        rewrite.push_back((NowNs() - t6) * 1e-3);
      } else {
        (void)translator::TranslateOpenClToCuda(src.text, diags);
        cl2cu.push_back((NowNs() - t4) * 1e-3);
      }

      const std::string salted =
          SaltSource(src.text, src.cuda, salt + rep * sources.size() + i);
      interp::ModuleCacheOutcome outcome = interp::ModuleCacheOutcome::kMiss;
      int64_t t7 = NowNs();
      (void)interp::Module::Compile(salted, dialect, diags, "", &outcome);
      int64_t t8 = NowNs();
      if (outcome == interp::ModuleCacheOutcome::kMiss)
        miss.push_back((t8 - t7) * 1e-3);
      (void)interp::Module::Compile(salted, dialect, diags, "", &outcome);
      if (outcome == interp::ModuleCacheOutcome::kHit)
        hit.push_back((NowNs() - t8) * 1e-3);
    }
    auto per_byte = [](double n, double b) { return b > 0 ? n / b : 0.0; };
    lex.push_back(per_byte(ns[0], bytes[0]));
    parse.push_back(per_byte(ns[1], bytes[1]));
    sema.push_back(per_byte(ns[2], bytes[2]));
    print.push_back(per_byte(ns[3], bytes[3]));
  }
  ProbeResult r;
  r.lex_ns_per_byte = Quantile(lex, 0.5);
  r.parse_ns_per_byte = Quantile(parse, 0.5);
  r.sema_ns_per_byte = Quantile(sema, 0.5);
  r.print_ns_per_byte = Quantile(print, 0.5);
  r.cl2cu_us_p50 = Quantile(cl2cu, 0.5);
  r.cu2cl_us_p50 = Quantile(cu2cl, 0.5);
  r.classify_us_p50 = Quantile(classify, 0.5);
  r.host_rewrite_us_p50 = Quantile(rewrite, 0.5);
  r.compile_miss_us_p50 = Quantile(miss, 0.5);
  r.compile_hit_us_p50 = Quantile(hit, 0.5);
  return r;
}

}  // namespace perfbench
