// Determinism harness for the block-parallel execution engine
// (docs/PERFORMANCE.md): the whole benchmark corpus must be bit-identical
// between serial execution (BRIDGECL_JOBS=1) and an 8-worker pool —
// checksums, every DeviceStats counter, the simulated clock, per-engine
// busy time, and exported Chrome traces. Error paths get the same
// treatment: guarded-memory faults and exhaustive nth-fault sweeps must
// report byte-identical statuses at any worker count. The content-hashed
// module cache rides along: hits skip the front end (surfaced on build
// trace spans), replay diagnostics byte-identically, charge the same
// simulated build cost, and honor the BRIDGECL_MODULE_CACHE kill switch.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/app.h"
#include "interp/executor.h"
#include "interp/module.h"
#include "lang/dialect.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "simgpu/device.h"
#include "simgpu/fault_injector.h"
#include "trace/exporters.h"
#include "trace/session.h"

namespace bridgecl {
namespace {

using apps::App;
using apps::AppPtr;
using apps::FindApp;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceStats;
using simgpu::EngineId;
using simgpu::FaultKind;
using simgpu::FaultPlan;
using simgpu::FaultPoint;
using simgpu::FaultSite;
using simgpu::TitanProfile;

constexpr int kWorkers = 8;

/// Pins the worker count for one scope and restores the environment
/// default (BRIDGECL_JOBS / hardware concurrency) on exit, so tests never
/// leak a count into each other.
struct ScopedWorkers {
  explicit ScopedWorkers(int n) { interp::SetWorkerCount(n); }
  ~ScopedWorkers() { interp::SetWorkerCount(0); }
};

void ExpectStatsEqual(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.kernels_launched, b.kernels_launched);
  EXPECT_EQ(a.work_items_executed, b.work_items_executed);
  EXPECT_EQ(a.global_accesses, b.global_accesses);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_bank_words, b.shared_bank_words);
  EXPECT_EQ(a.constant_accesses, b.constant_accesses);
  EXPECT_EQ(a.image_accesses, b.image_accesses);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.host_to_device_bytes, b.host_to_device_bytes);
  EXPECT_EQ(a.device_to_host_bytes, b.device_to_host_bytes);
  EXPECT_EQ(a.device_to_device_bytes, b.device_to_device_bytes);
  EXPECT_EQ(a.api_calls, b.api_calls);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
}

// ---------------------------------------------------------------------------
// Whole-corpus bit-identity: every app, both dialects, 1 vs 8 workers.
// ---------------------------------------------------------------------------
struct RunSnapshot {
  Status status;
  double checksum = 0;
  double clock = 0;
  double compute_busy = 0;
  double copy_busy = 0;
  DeviceStats stats;
};

void ExpectSnapshotsIdentical(const RunSnapshot& serial,
                              const RunSnapshot& parallel) {
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  // Exact equality throughout: the parallel engine reduces per-block
  // results in canonical block order, so even floating-point cycle
  // accumulation and checksums must match to the last bit.
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.clock, parallel.clock);
  // The compute-engine timing model is untouched by the host-side worker
  // pool: simulated busy time is a function of cycle counts only.
  EXPECT_EQ(serial.compute_busy, parallel.compute_busy);
  EXPECT_EQ(serial.copy_busy, parallel.copy_busy);
  ExpectStatsEqual(serial.stats, parallel.stats);
}

RunSnapshot RunClApp(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  RunSnapshot s;
  s.status = app.RunCl(*cl, &s.checksum);
  s.clock = dev.now_us();
  s.compute_busy = dev.EngineBusyUs(EngineId::kCompute);
  s.copy_busy = dev.EngineBusyUs(EngineId::kCopy);
  s.stats = dev.stats();
  return s;
}

RunSnapshot RunCudaApp(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  auto cu = mcuda::CreateNativeCudaApi(dev);
  RunSnapshot s;
  s.status = app.RunCuda(*cu, &s.checksum);
  s.clock = dev.now_us();
  s.compute_busy = dev.EngineBusyUs(EngineId::kCompute);
  s.copy_busy = dev.EngineBusyUs(EngineId::kCopy);
  s.stats = dev.stats();
  return s;
}

std::vector<std::string> AllAppNames() {
  std::vector<std::string> names;
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps})
    for (auto& app : maker()) names.push_back(app->name());
  return names;
}

class ParallelExecAppTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllApps, ParallelExecAppTest, ::testing::ValuesIn(AllAppNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST_P(ParallelExecAppTest, OpenClBitIdenticalAcrossWorkerCounts) {
  AppPtr app = FindApp(GetParam());
  ASSERT_NE(app, nullptr);
  if (!app->has_opencl()) GTEST_SKIP() << "no OpenCL version";
  RunSnapshot serial = RunClApp(*app, 1);
  RunSnapshot parallel = RunClApp(*app, kWorkers);
  ExpectSnapshotsIdentical(serial, parallel);
}

TEST_P(ParallelExecAppTest, CudaBitIdenticalAcrossWorkerCounts) {
  AppPtr app = FindApp(GetParam());
  ASSERT_NE(app, nullptr);
  if (!app->has_cuda()) GTEST_SKIP() << "no CUDA version";
  RunSnapshot serial = RunCudaApp(*app, 1);
  RunSnapshot parallel = RunCudaApp(*app, kWorkers);
  ExpectSnapshotsIdentical(serial, parallel);
}

// ---------------------------------------------------------------------------
// Trace bit-identity: the exported Chrome JSON carries simulated
// timestamps and counter deltas only, so it must not change with the
// worker count either. (Module cache pinned off: the second process-wide
// compile of the same source would legitimately flip a build span's
// hit/miss metadata.)
// ---------------------------------------------------------------------------
std::string TracedClAppJson(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  double checksum = 0;
  Status st = app.RunCl(*cl, &checksum);
  EXPECT_TRUE(st.ok()) << app.name() << ": " << st.ToString();
  return trace::ChromeTraceJson(session.recorder());
}

TEST(ParallelExecTest, TracesBitIdenticalAcrossWorkerCounts) {
  interp::SetModuleCacheEnabled(0);
  // srad serializes under the cross-block hazard analysis (in-place
  // stencil), gaussian and pathfinder run block-parallel: both regimes
  // must export identical traces.
  for (const char* name : {"srad", "gaussian", "pathfinder"}) {
    SCOPED_TRACE(name);
    AppPtr app = FindApp(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(TracedClAppJson(*app, 1), TracedClAppJson(*app, kWorkers));
  }
  interp::SetModuleCacheEnabled(-1);
}

// ---------------------------------------------------------------------------
// Error-path identity: guarded-memory faults under 8 workers report the
// same canonical first fault as the serial engine (lowest failing block
// wins the reduction, whatever order workers hit the redzone).
// ---------------------------------------------------------------------------
Status RunGuardedOob(int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  dev.vm().set_guarded(true);
  auto cl = mocl::CreateNativeClApi(dev);
  // 64 work-items in 8 blocks store into a 25-float allocation: items
  // 25..63 all overrun, spread across blocks 3..7. The reported fault
  // must be block 3's item 25 at every worker count.
  const char* src =
      "__kernel void pexec_oob_store(__global float* c) {"
      "  c[get_global_id(0)] = 1.0f;"
      "}";
  auto run = [&]() -> Status {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel,
                              cl->CreateKernel(prog, "pexec_oob_store"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem c, cl->CreateBuffer(MemFlags::kWriteOnly, 25 * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &c));
    size_t gws = 64, lws = 8;
    Status st = cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws);
    if (st.ok()) st = cl->Finish();
    (void)cl->ReleaseMemObject(c);
    return st;
  };
  return run();
}

TEST(ParallelExecTest, GuardedOobFaultIdenticalAcrossWorkerCounts) {
  Status serial = RunGuardedOob(1);
  Status parallel = RunGuardedOob(kWorkers);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.api_code(), parallel.api_code());
  EXPECT_EQ(serial.code(), parallel.code());
  EXPECT_EQ(serial.message(), parallel.message());
  EXPECT_NE(serial.message().find("work-item global (25,0,0)"),
            std::string::npos)
      << serial.ToString();
}

// ---------------------------------------------------------------------------
// Hazard-scan fixpoint: a pointer chain assigned in reverse order gains
// one link of provenance per scan round, so the store through `p6` is
// traced to `a` only in the sixth round. Stopping early would let this
// in-place shift (each block reads the next block's first element) run
// in parallel and race.
// ---------------------------------------------------------------------------
std::vector<float> RunReversePointerChain(int workers) {
  constexpr int kN = 4096;
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  DiagnosticEngine diags;
  auto m = interp::Module::Compile(
      "__kernel void shift(__global float* a, int n) {"
      "  __global float* p1 = 0;"
      "  __global float* p2 = 0;"
      "  __global float* p3 = 0;"
      "  __global float* p4 = 0;"
      "  __global float* p5 = 0;"
      "  __global float* p6 = 0;"
      "  for (int k = 0; k < 6; ++k) {"
      "    p6 = p5; p5 = p4; p4 = p3; p3 = p2; p2 = p1; p1 = a;"
      "  }"
      "  int i = get_global_id(0);"
      "  if (i < n) p6[i] = a[i + 1] + 1.0f;"
      "}",
      lang::Dialect::kOpenCL, diags);
  EXPECT_TRUE(m.ok()) << diags.ToString();
  if (!m.ok() || !(*m)->LoadOn(dev).ok()) return {};
  auto va = dev.vm().AllocGlobal((kN + 1) * sizeof(float));
  EXPECT_TRUE(va.ok());
  if (!va.ok()) return {};
  std::vector<float> data(kN + 1);
  for (int i = 0; i <= kN; ++i) data[i] = static_cast<float>(i);
  std::memcpy(*dev.vm().Resolve(*va, data.size() * sizeof(float)),
              data.data(), data.size() * sizeof(float));
  interp::LaunchConfig cfg;
  cfg.grid = simgpu::Dim3(kN / 64);
  cfg.block = simgpu::Dim3(64);
  std::vector<interp::KernelArg> args = {interp::KernelArg::Pointer(*va),
                                         interp::KernelArg::Value<int>(kN)};
  auto r = interp::LaunchKernel(dev, **m, "shift", cfg, args);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::memcpy(data.data(), *dev.vm().Resolve(*va, data.size() * sizeof(float)),
              data.size() * sizeof(float));
  return data;
}

TEST(ParallelExecTest, HazardScanFollowsLongPointerChains) {
  std::vector<float> serial = RunReversePointerChain(1);
  ASSERT_EQ(serial.size(), 4097u);
  // Blocks in canonical order read a[i + 1] before it is overwritten.
  EXPECT_EQ(serial[0], 2.0f);
  EXPECT_EQ(serial[4095], 4097.0f);
  EXPECT_EQ(serial, RunReversePointerChain(4));
}

// ---------------------------------------------------------------------------
// Nth-fault sweep identity: an armed fault plan forces the launch onto
// the serial path (injection ordinals are defined by canonical execution
// order), so every ordinal's failure is byte-identical at any requested
// worker count.
// ---------------------------------------------------------------------------
Status RunVaddWithPlan(const FaultPlan& plan, int workers,
                       DeviceStats* stats) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  dev.faults().set_plan(plan);
  auto cl = mocl::CreateNativeClApi(dev);
  const char* src =
      "__kernel void pexec_vadd(__global float* a, __global float* b,"
      "                         __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}";
  constexpr int kN = 16;
  auto run = [&]() -> Status {
    std::vector<float> a(kN, 1.0f), b(kN, 2.0f), out(kN);
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel,
                              cl->CreateKernel(prog, "pexec_vadd"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem ma, cl->CreateBuffer(MemFlags::kReadOnly, kN * 4, a.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mb, cl->CreateBuffer(MemFlags::kReadOnly, kN * 4, b.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mc, cl->CreateBuffer(MemFlags::kWriteOnly, kN * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &ma));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 1, sizeof(ClMem), &mb));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 2, sizeof(ClMem), &mc));
    int n = kN;
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 3, sizeof(int), &n));
    size_t gws = kN, lws = 4;
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueReadBuffer(mc, 0, kN * 4,
                                                   out.data()));
    for (ClMem m : {ma, mb, mc}) (void)cl->ReleaseMemObject(m);
    return OkStatus();
  };
  Status st = run();
  if (stats != nullptr) *stats = dev.stats();
  return st;
}

FaultPlan OneShot(FaultSite site, uint64_t nth) {
  FaultPlan plan;
  plan.points.push_back(FaultPoint{site, nth, FaultKind::kError, false, 0});
  return plan;
}

TEST(ParallelExecTest, NthFaultSweepIdenticalAcrossWorkerCounts) {
  // Sweep increasing ordinals until the plan stops firing: every ordinal
  // that fails must fail with byte-identical status and counters at both
  // worker counts.
  for (FaultSite site : {FaultSite::kMemoryAccess, FaultSite::kInstruction}) {
    SCOPED_TRACE(simgpu::FaultSiteName(site));
    uint64_t nth = 0;
    for (; nth < 4096; ++nth) {
      SCOPED_TRACE("ordinal " + std::to_string(nth));
      DeviceStats stats1, stats8;
      Status s1 = RunVaddWithPlan(OneShot(site, nth), 1, &stats1);
      Status s8 = RunVaddWithPlan(OneShot(site, nth), kWorkers, &stats8);
      EXPECT_EQ(s1.ok(), s8.ok());
      if (s1.ok() || s8.ok()) break;  // past the last ordinal that fires
      EXPECT_EQ(s1.api_code(), s8.api_code());
      EXPECT_EQ(s1.code(), s8.code());
      EXPECT_EQ(s1.message(), s8.message());
      ExpectStatsEqual(stats1, stats8);
    }
    EXPECT_GT(nth, 0u) << "the sweep never fired a fault";
  }
}

// ---------------------------------------------------------------------------
// Module cache: hits skip the front end, replay diagnostics, surface on
// build trace spans, charge identical simulated cost, and can be killed.
// ---------------------------------------------------------------------------

/// Build-span events of the recorder, in order.
std::vector<trace::TraceEvent> BuildSpans(const trace::TraceRecorder& rec) {
  std::vector<trace::TraceEvent> out;
  for (const trace::TraceEvent& e : rec.events())
    if (std::strcmp(e.name, "clBuildProgram") == 0) out.push_back(e);
  return out;
}

TEST(ParallelExecTest, ModuleCacheHitSkipsFrontEndAndMarksSpans) {
  interp::SetModuleCacheEnabled(1);
  // Unique source so this test's first compile is a guaranteed miss even
  // though the cache is process-wide.
  const char* src =
      "__kernel void pexec_cache_probe(__global float* x) {"
      "  x[get_global_id(0)] = 2.0f;"
      "}";
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  interp::ModuleCacheStats before = interp::GetModuleCacheStats();
  auto p1 = cl->CreateProgramWithSource(src);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(cl->BuildProgram(*p1).ok());
  auto p2 = cl->CreateProgramWithSource(src);
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(cl->BuildProgram(*p2).ok());
  interp::ModuleCacheStats after = interp::GetModuleCacheStats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);

  // Build logs identical on miss and hit.
  auto log1 = cl->GetProgramBuildLog(*p1);
  auto log2 = cl->GetProgramBuildLog(*p2);
  ASSERT_TRUE(log1.ok() && log2.ok());
  EXPECT_EQ(*log1, *log2);

  // The spans carry the outcome and the cumulative counters...
  std::vector<trace::TraceEvent> spans = BuildSpans(session.recorder());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].module_cache, 0);  // miss
  EXPECT_EQ(spans[1].module_cache, 1);  // hit
  EXPECT_EQ(spans[1].module_cache_hits, spans[0].module_cache_hits + 1);
  EXPECT_EQ(spans[1].module_cache_misses, spans[0].module_cache_misses);
  // ...and the simulated build cost is charged identically on hit and
  // miss (the cache saves wall-clock only, never simulated time).
  EXPECT_EQ(spans[0].end_us - spans[0].begin_us,
            spans[1].end_us - spans[1].begin_us);
  interp::SetModuleCacheEnabled(-1);
}

TEST(ParallelExecTest, ModuleCacheReplaysFailureDiagnosticsIdentically) {
  interp::SetModuleCacheEnabled(1);
  const char* broken =
      "__kernel void pexec_cache_broken(__global float* x) {"
      "  x[get_global_id(0)] = undeclared_pexec_name;"
      "}";
  auto build = [&](std::string* log) -> Status {
    Device dev(TitanProfile());
    auto cl = mocl::CreateNativeClApi(dev);
    auto prog = cl->CreateProgramWithSource(broken);
    EXPECT_TRUE(prog.ok());
    Status st = cl->BuildProgram(*prog);
    auto l = cl->GetProgramBuildLog(*prog);
    EXPECT_TRUE(l.ok());
    *log = *l;
    return st;
  };
  std::string log_miss, log_hit;
  Status miss = build(&log_miss);
  Status hit = build(&log_hit);
  ASSERT_FALSE(miss.ok());
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(miss.api_code(), mocl::CL_BUILD_PROGRAM_FAILURE);
  EXPECT_EQ(hit.api_code(), miss.api_code());
  EXPECT_EQ(hit.code(), miss.code());
  EXPECT_EQ(hit.message(), miss.message());
  EXPECT_FALSE(log_miss.empty());
  // clGetProgramBuildInfo is byte-identical whether the diagnostics came
  // from a live front-end run or from the cache's replay.
  EXPECT_EQ(log_miss, log_hit);
  interp::SetModuleCacheEnabled(-1);
}

TEST(ParallelExecTest, ModuleCacheKillSwitchBypassesEntirely) {
  interp::SetModuleCacheEnabled(0);
  const char* src =
      "__kernel void pexec_cache_killed(__global float* x) {"
      "  x[get_global_id(0)] = 3.0f;"
      "}";
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  interp::ModuleCacheStats before = interp::GetModuleCacheStats();
  for (int i = 0; i < 2; ++i) {
    auto p = cl->CreateProgramWithSource(src);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(cl->BuildProgram(*p).ok());
  }
  interp::ModuleCacheStats after = interp::GetModuleCacheStats();
  // Disabled: no counter moves, and build spans carry no cache metadata.
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  for (const trace::TraceEvent& e : BuildSpans(session.recorder()))
    EXPECT_EQ(e.module_cache, -1);
  interp::SetModuleCacheEnabled(-1);
}

TEST(ParallelExecTest, ModuleCacheKeySeparatesInputs) {
  const std::string src = "__kernel void k(__global int* x) { x[0] = 1; }";
  uint64_t base = interp::ModuleCacheKey(src, lang::Dialect::kOpenCL, "");
  EXPECT_NE(base,
            interp::ModuleCacheKey(src + " ", lang::Dialect::kOpenCL, ""));
  EXPECT_NE(base, interp::ModuleCacheKey(src, lang::Dialect::kCUDA, ""));
  EXPECT_NE(base,
            interp::ModuleCacheKey(src, lang::Dialect::kOpenCL, "-DFOO"));
  // Deterministic: same inputs, same key, every call.
  EXPECT_EQ(base, interp::ModuleCacheKey(src, lang::Dialect::kOpenCL, ""));
}

}  // namespace
}  // namespace bridgecl
