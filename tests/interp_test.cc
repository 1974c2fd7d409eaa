#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "interp/executor.h"
#include "interp/image.h"
#include "interp/module.h"
#include "interp/value.h"
#include "simgpu/device.h"

namespace bridgecl::interp {
namespace {

using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

class InterpTest : public ::testing::Test {
 protected:
  Device device_{TitanProfile()};

  std::unique_ptr<Module> Compile(const std::string& src, Dialect d) {
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString();
    if (!m.ok()) return nullptr;
    Status st = (*m)->LoadOn(device_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return std::move(*m);
  }

  uint64_t Alloc(size_t bytes) {
    auto va = device_.vm().AllocGlobal(bytes);
    EXPECT_TRUE(va.ok());
    return *va;
  }

  template <typename T>
  void WriteBuf(uint64_t va, const std::vector<T>& data) {
    auto p = device_.vm().Resolve(va, data.size() * sizeof(T));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    std::memcpy(*p, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> ReadBuf(uint64_t va, size_t count) {
    auto p = device_.vm().Resolve(va, count * sizeof(T));
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    std::vector<T> out(count);
    if (p.ok()) std::memcpy(out.data(), *p, count * sizeof(T));
    return out;
  }
};

TEST_F(InterpTest, OpenClVectorAdd) {
  auto m = Compile(
      "__kernel void vadd(__global float* a, __global float* b,"
      "                   __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 64;
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = i * 1.0f;
    b[i] = i * 2.0f;
  }
  uint64_t va = Alloc(n * 4), vb = Alloc(n * 4), vc = Alloc(n * 4);
  WriteBuf(va, a);
  WriteBuf(vb, b);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb),
                                 KernelArg::Pointer(vc),
                                 KernelArg::Value<int>(n)};
  auto r = LaunchKernel(device_, *m, "vadd", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ReadBuf<float>(vc, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(c[i], 3.0f * i);
  EXPECT_EQ(r->work_items, 64u);
  EXPECT_GT(r->total_cycles, 0.0);
}

TEST_F(InterpTest, CudaVectorAddWithBuiltinVars) {
  auto m = Compile(
      "__global__ void vadd(float* a, float* b, float* c, int n) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  const int n = 48;  // not a multiple of block size: guard must work
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = 1.5f * i;
    b[i] = 0.5f * i;
  }
  uint64_t va = Alloc(n * 4), vb = Alloc(n * 4), vc = Alloc(n * 4);
  WriteBuf(va, a);
  WriteBuf(vb, b);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb),
                                 KernelArg::Pointer(vc),
                                 KernelArg::Value<int>(n)};
  auto r = LaunchKernel(device_, *m, "vadd", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ReadBuf<float>(vc, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(c[i], 2.0f * i);
}

TEST_F(InterpTest, BarrierReduction) {
  // Tree reduction in shared memory: requires true barrier semantics.
  auto m = Compile(
      "__kernel void reduce(__global float* in, __global float* out) {"
      "  __local float tile[64];"
      "  int lid = get_local_id(0);"
      "  int gid = get_global_id(0);"
      "  tile[lid] = in[gid];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  for (int s = 32; s > 0; s >>= 1) {"
      "    if (lid < s) tile[lid] += tile[lid + s];"
      "    barrier(CLK_LOCAL_MEM_FENCE);"
      "  }"
      "  if (lid == 0) out[get_group_id(0)] = tile[0];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 128;
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 1.0f);
  uint64_t vin = Alloc(n * 4), vout = Alloc(2 * 4);
  WriteBuf(vin, in);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(64);
  std::vector<KernelArg> args = {KernelArg::Pointer(vin),
                                 KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "reduce", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vout, 2);
  // 1..64 = 2080, 65..128 = 6176
  EXPECT_FLOAT_EQ(out[0], 2080.0f);
  EXPECT_FLOAT_EQ(out[1], 6176.0f);
  EXPECT_GT(device_.stats().barriers, 0u);
}

TEST_F(InterpTest, CudaDynamicSharedMemory) {
  auto m = Compile(
      "__global__ void rev(float* d) {"
      "  extern __shared__ float tile[];"
      "  int t = threadIdx.x;"
      "  int n = blockDim.x;"
      "  tile[t] = d[t];"
      "  __syncthreads();"
      "  d[t] = tile[n - 1 - t];"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  const int n = 32;
  std::vector<float> data(n);
  std::iota(data.begin(), data.end(), 0.0f);
  uint64_t vd = Alloc(n * 4);
  WriteBuf(vd, data);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(n);
  cfg.dynamic_shared_bytes = n * 4;
  std::vector<KernelArg> args = {KernelArg::Pointer(vd)};
  auto r = LaunchKernel(device_, *m, "rev", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vd, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(out[i], float(n - 1 - i));
}

TEST_F(InterpTest, OpenClDynamicLocalArgs) {
  // Two dynamic __local allocations for one kernel — legal in OpenCL,
  // impossible directly in CUDA (§4.1).
  auto m = Compile(
      "__kernel void two(__global int* out, __local int* t1,"
      "                  __local int* t2) {"
      "  int l = get_local_id(0);"
      "  t1[l] = l;"
      "  t2[l] = 100 + l;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  out[get_global_id(0)] = t1[l] + t2[l];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vout = Alloc(16 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(16);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout),
                                 KernelArg::LocalAlloc(16 * 4),
                                 KernelArg::LocalAlloc(16 * 4)};
  auto r = LaunchKernel(device_, *m, "two", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 100 + 2 * i);
}

TEST_F(InterpTest, ConstantMemoryStaticInit) {
  auto m = Compile(
      "__constant int lut[4] = {10, 20, 30, 40};"
      "__kernel void k(__global int* out) {"
      "  int i = get_global_id(0);"
      "  out[i] = lut[i % 4];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vout = Alloc(8 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(8);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 8);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[5], 20);
  EXPECT_GT(device_.stats().constant_accesses, 0u);
}

TEST_F(InterpTest, DeviceGlobalSymbol) {
  // CUDA __device__ static + cudaMemcpyToSymbol-style host access (§4.3).
  auto m = Compile(
      "__device__ int bias[4];"
      "__global__ void k(int* out) {"
      "  int i = threadIdx.x;"
      "  out[i] = bias[i] * 2;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  auto sym = m->FindSymbol("bias");
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(sym->size, 16u);
  EXPECT_EQ(sym->space, lang::AddressSpace::kGlobal);
  WriteBuf(sym->va, std::vector<int>{7, 8, 9, 10});
  uint64_t vout = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 4);
  EXPECT_EQ(out[0], 14);
  EXPECT_EQ(out[3], 20);
}

TEST_F(InterpTest, AtomicSemanticsDiffer) {
  // §3.7: OpenCL atomic_inc is unconditional; CUDA atomicInc wraps.
  auto mcl = Compile(
      "__kernel void k(__global int* c) { atomic_inc(c); }",
      Dialect::kOpenCL);
  ASSERT_NE(mcl, nullptr);
  uint64_t vc = Alloc(4);
  WriteBuf(vc, std::vector<int>{0});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(10);
  std::vector<KernelArg> args = {KernelArg::Pointer(vc)};
  ASSERT_TRUE(LaunchKernel(device_, *mcl, "k", cfg, args).ok());
  EXPECT_EQ(ReadBuf<int>(vc, 1)[0], 10);

  auto mcu = Compile(
      "__global__ void k(unsigned int* c) { atomicInc(c, 3u); }",
      Dialect::kCUDA);
  ASSERT_NE(mcu, nullptr);
  uint64_t vc2 = Alloc(4);
  WriteBuf(vc2, std::vector<unsigned>{0});
  std::vector<KernelArg> args2 = {KernelArg::Pointer(vc2)};
  ASSERT_TRUE(LaunchKernel(device_, *mcu, "k", cfg, args2).ok());
  // 10 increments wrapping at 3: 0,1,2,3,0,1,2,3,0,1 -> final 2
  EXPECT_EQ(ReadBuf<unsigned>(vc2, 1)[0], 2u);
}

TEST_F(InterpTest, VectorSwizzlesInKernel) {
  auto m = Compile(
      "__kernel void k(__global float4* v, __global float2* out) {"
      "  float4 a = v[0];"
      "  out[0] = a.lo + a.hi;"
      "  float4 r = a.wzyx;"
      "  out[1] = r.xy;"
      "  a.odd = a.even;"
      "  out[2] = a.yw;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vv = Alloc(16), vo = Alloc(3 * 8);
  WriteBuf(vv, std::vector<float>{1, 2, 3, 4});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vv),
                                 KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 6);
  EXPECT_FLOAT_EQ(out[0], 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(out[1], 6.0f);   // 2+4
  EXPECT_FLOAT_EQ(out[2], 4.0f);   // r.x = a.w
  EXPECT_FLOAT_EQ(out[3], 3.0f);   // r.y = a.z
  EXPECT_FLOAT_EQ(out[4], 1.0f);   // a.y = a.x
  EXPECT_FLOAT_EQ(out[5], 3.0f);   // a.w = a.z
}

TEST_F(InterpTest, WideVectorsAndBitcast) {
  auto m = Compile(
      "__kernel void k(__global float8* v, __global float* out) {"
      "  float8 a = v[0];"
      "  float8 b = a + a;"
      "  out[0] = b.s0 + b.s7;"
      "  out[1] = as_float(as_int(a.s1));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vv = Alloc(32), vo = Alloc(8);
  WriteBuf(vv, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vv),
                                 KernelArg::Pointer(vo)};
  ASSERT_TRUE(LaunchKernel(device_, *m, "k", cfg, args).ok());
  auto out = ReadBuf<float>(vo, 2);
  EXPECT_FLOAT_EQ(out[0], 18.0f);  // 2*1 + 2*8
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST_F(InterpTest, StructAccess) {
  auto m = Compile(
      "typedef struct { float x; float y; int w; } Pt;"
      "__kernel void k(__global Pt* pts, __global float* out) {"
      "  int i = get_global_id(0);"
      "  Pt p = pts[i];"
      "  out[i] = p.x * p.y + (float)p.w;"
      "  pts[i].w = i;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  struct Pt {
    float x, y;
    int w;
  };
  std::vector<Pt> pts = {{2, 3, 1}, {4, 5, 2}};
  uint64_t vp = Alloc(sizeof(Pt) * 2), vo = Alloc(8);
  WriteBuf(vp, pts);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vp),
                                 KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 2);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 22.0f);
  auto back = ReadBuf<Pt>(vp, 2);
  EXPECT_EQ(back[0].w, 0);
  EXPECT_EQ(back[1].w, 1);
}

TEST_F(InterpTest, UserFunctionsAndTemplates) {
  auto m = Compile(
      "template <typename T> __device__ T tmax(T a, T b) {"
      "  return a > b ? a : b;"
      "}"
      "__device__ float scale(float v, float s) { return v * s; }"
      "__global__ void k(float* out, float* a, float* b) {"
      "  int i = threadIdx.x;"
      "  out[i] = scale(tmax<float>(a[i], b[i]), 10.0f);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(16), va = Alloc(16), vb = Alloc(16);
  WriteBuf(va, std::vector<float>{1, 5, 2, 8});
  WriteBuf(vb, std::vector<float>{4, 3, 9, 6});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[0], 40.0f);
  EXPECT_FLOAT_EQ(out[1], 50.0f);
  EXPECT_FLOAT_EQ(out[2], 90.0f);
  EXPECT_FLOAT_EQ(out[3], 80.0f);
}

TEST_F(InterpTest, ReferenceParams) {
  auto m = Compile(
      "__device__ void bump(int& x, int d) { x = x + d; }"
      "__global__ void k(int* out) {"
      "  int v = 5;"
      "  bump(v, 3);"
      "  out[threadIdx.x] = v;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 1)[0], 8);
}

TEST_F(InterpTest, PrivateArraysAndAddressOf) {
  auto m = Compile(
      "__device__ float sum3(float* p) { return p[0] + p[1] + p[2]; }"
      "__global__ void k(float* out) {"
      "  float acc[3];"
      "  acc[0] = 1.0f; acc[1] = 2.0f; acc[2] = 4.0f;"
      "  float x = 10.0f;"
      "  float* px = &x;"
      "  *px = *px + 1.0f;"
      "  out[0] = sum3(acc) + x;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FLOAT_EQ(ReadBuf<float>(vo, 1)[0], 18.0f);
}

TEST_F(InterpTest, ImageReadWrite) {
  // Build a 4x2 single-channel float image and sample it.
  const int w = 4, h = 2;
  uint64_t data_va = Alloc(w * h * 4);
  WriteBuf(data_va, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  ImageDesc desc;
  desc.data_va = data_va;
  desc.width = w;
  desc.height = h;
  desc.channels = 1;
  desc.elem_kind = static_cast<uint32_t>(lang::ScalarKind::kFloat);
  desc.row_pitch = w * 4;
  desc.slice_pitch = w * h * 4;
  desc.dims = 2;
  uint64_t desc_va = Alloc(sizeof(desc));
  {
    auto p = device_.vm().Resolve(desc_va, sizeof(desc));
    ASSERT_TRUE(p.ok());
    std::memcpy(*p, &desc, sizeof(desc));
  }
  auto m = Compile(
      "__kernel void k(__read_only image2d_t img, sampler_t s,"
      "                __global float* out) {"
      "  int i = get_global_id(0);"
      "  float4 t = read_imagef(img, s, (int2)(i, 1));"
      "  out[i] = t.x;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {
      KernelArg::Pointer(desc_va),
      KernelArg::Value<uint64_t>(0),  // sampler: nearest, unnormalized
      KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[3], 8.0f);
  EXPECT_GT(device_.stats().image_accesses, 0u);
}

TEST_F(InterpTest, CudaTextureFetch) {
  const int n = 8;
  uint64_t data_va = Alloc(n * 4);
  WriteBuf(data_va, std::vector<float>{0, 10, 20, 30, 40, 50, 60, 70});
  ImageDesc desc;
  desc.data_va = data_va;
  desc.width = n;
  desc.height = 1;
  desc.channels = 1;
  desc.elem_kind = static_cast<uint32_t>(lang::ScalarKind::kFloat);
  desc.row_pitch = n * 4;
  desc.slice_pitch = n * 4;
  desc.dims = 1;
  uint64_t desc_va = Alloc(sizeof(desc));
  {
    auto p = device_.vm().Resolve(desc_va, sizeof(desc));
    ASSERT_TRUE(p.ok());
    std::memcpy(*p, &desc, sizeof(desc));
  }
  auto m = Compile(
      "texture<float, 1, cudaReadModeElementType> tex;"
      "__global__ void k(float* out) {"
      "  int i = threadIdx.x;"
      "  out[i] = tex1Dfetch(tex, i);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->BindTexture("tex", desc_va).ok());
  uint64_t vo = Alloc(n * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(n);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, n);
  EXPECT_FLOAT_EQ(out[3], 30.0f);
  EXPECT_FLOAT_EQ(out[7], 70.0f);
}

TEST_F(InterpTest, UnboundTextureFails) {
  auto m = Compile(
      "texture<float, 1, cudaReadModeElementType> tex;"
      "__global__ void k(float* out) { out[0] = tex1Dfetch(tex, 0); }",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  EXPECT_FALSE(r.ok());
}

TEST_F(InterpTest, BankModeAffectsSharedCost) {
  const std::string src =
      "__kernel void k(__global double* g) {"
      "  __local double tile[32];"
      "  int l = get_local_id(0);"
      "  tile[l] = g[l];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  g[l] = tile[31 - l] * 2.0;"
      "}";
  auto m = Compile(src, Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(32 * 8);
  std::vector<double> init(32, 1.0);
  WriteBuf(vg, init);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};

  device_.set_bank_mode(simgpu::BankMode::k32Bit);
  device_.ResetStats();
  auto r32 = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r32.ok());
  uint64_t words32 = device_.stats().shared_bank_words;

  device_.set_bank_mode(simgpu::BankMode::k64Bit);
  device_.ResetStats();
  auto r64 = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r64.ok());
  uint64_t words64 = device_.stats().shared_bank_words;

  // 8-byte accesses span 2 words in 32-bit mode, 1 in 64-bit mode (§6.2).
  EXPECT_EQ(words32, 2 * words64);
  EXPECT_GT(r32->total_cycles, r64->total_cycles);
}

TEST_F(InterpTest, OccupancyFollowsRegisterOverride) {
  auto m = Compile(
      "__kernel void k(__global float* g) {"
      "  g[get_global_id(0)] *= 2.0f;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(32 * 4);
  WriteBuf(vg, std::vector<float>(32, 1.0f));
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};

  m->SetRegisterOverride("k", 85);  // cfd CUDA-side pressure
  auto lo = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(lo.ok());
  m->SetRegisterOverride("k", 68);  // cfd OpenCL-side pressure
  auto hi = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(hi.ok());
  EXPECT_NEAR(lo->occupancy, 0.375, 0.01);
  EXPECT_NEAR(hi->occupancy, 0.469, 0.01);
  EXPECT_GT(lo->kernel_time_us, hi->kernel_time_us);
}

TEST_F(InterpTest, OutOfBoundsAccessFaults) {
  auto m = Compile(
      "__kernel void k(__global int* g) { g[1000000] = 1; }",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(16);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST_F(InterpTest, WrongArgCountRejected) {
  auto m = Compile("__kernel void k(__global int* g, int n) {}",
                   Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(Alloc(16))};
  EXPECT_FALSE(LaunchKernel(device_, *m, "k", cfg, args).ok());
}

TEST_F(InterpTest, BlockTooLargeRejected) {
  auto m = Compile("__kernel void k() {}", Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4096);
  auto r = LaunchKernel(device_, *m, "k", cfg, {});
  EXPECT_FALSE(r.ok());
}

TEST_F(InterpTest, MathBuiltins) {
  auto m = Compile(
      "__kernel void k(__global float* out) {"
      "  out[0] = sqrt(16.0f);"
      "  out[1] = fmax(2.0f, 3.0f);"
      "  out[2] = exp(0.0f);"
      "  out[3] = pow(2.0f, 10.0f);"
      "  out[4] = fabs(-2.5f);"
      "  out[5] = clamp(5.0f, 0.0f, 1.0f);"
      "  out[6] = floor(2.9f);"
      "  out[7] = fmin(7.0f, (float)min(3, 9));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(8 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 8);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  EXPECT_FLOAT_EQ(out[3], 1024.0f);
  EXPECT_FLOAT_EQ(out[4], 2.5f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);
  EXPECT_FLOAT_EQ(out[6], 2.0f);
  EXPECT_FLOAT_EQ(out[7], 3.0f);
}

TEST_F(InterpTest, StructByValueKernelArg) {
  // CUDA allows passing a struct (even containing pointers) by value —
  // the heartwall pattern that CU→CL translation must reject but native
  // execution must support.
  auto m = Compile(
      "struct Params { float scale; int n; };"
      "__global__ void k(float* out, struct Params p) {"
      "  int i = threadIdx.x;"
      "  if (i < p.n) out[i] = p.scale * i;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  struct Params {
    float scale;
    int n;
  };
  Params p{2.5f, 4};
  uint64_t vo = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Value<Params>(p)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[2], 5.0f);
  EXPECT_FLOAT_EQ(out[3], 7.5f);
}

TEST_F(InterpTest, MultiDimensionalGrid) {
  auto m = Compile(
      "__kernel void k(__global int* out, int w) {"
      "  int x = get_global_id(0);"
      "  int y = get_global_id(1);"
      "  out[y * w + x] = x + 10 * y;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int w = 8, h = 4;
  uint64_t vo = Alloc(w * h * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(2, 2);
  cfg.block = Dim3(4, 2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Value<int>(w)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vo, w * h);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3 * w + 7], 7 + 30);
}

TEST_F(InterpTest, OutOfRangeDimindx) {
  // OpenCL 1.2 §6.12.1: ids read 0 and sizes read 1 outside
  // [0, get_work_dim()), instead of aliasing the z dimension.
  auto m = Compile(
      "__kernel void k(__global int* out) {"
      "  if (get_local_id(2) != 1 || get_group_id(2) != 1) return;"
      "  out[0] = get_local_size(5);"
      "  out[1] = get_local_size(-1);"
      "  out[2] = get_global_size(3);"
      "  out[3] = get_num_groups(7);"
      "  out[4] = get_global_id(3);"
      "  out[5] = get_local_id(-2);"
      "  out[6] = get_group_id(4);"
      "  out[7] = get_global_offset(9);"
      "  out[8] = get_local_size(2);"
      "  out[9] = get_global_id(2);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(10 * 4);
  WriteBuf(vo, std::vector<int>(10, -1));
  LaunchConfig cfg;
  cfg.grid = Dim3(1, 1, 3);
  cfg.block = Dim3(1, 1, 2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 10),
            (std::vector<int>{1, 1, 1, 1, 0, 0, 0, 0, 2, 3}));
}

// -- variable binding: sema-assigned frame slots ----------------------------

class BindingTest : public InterpTest {
 protected:
  /// Runs kernel `k` of `src` as one work-item whose first argument is an
  /// int buffer of `count` elements, followed by `extra`.
  StatusOr<std::vector<int>> RunOne(const std::string& src, Dialect d,
                                    size_t count,
                                    std::vector<KernelArg> extra = {}) {
    auto m = Compile(src, d);
    if (m == nullptr) return InternalError("compile failed");
    uint64_t vo = Alloc(count * 4);
    std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
    for (KernelArg& a : extra) args.push_back(std::move(a));
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    auto r = LaunchKernel(device_, *m, "k", cfg, args);
    if (!r.ok()) return r.status();
    return ReadBuf<int>(vo, count);
  }
};

TEST_F(BindingTest, LoopLocalArrayReusesItsStorage) {
  // 5000 iterations of a 16-byte array would exhaust the 64 KiB of
  // private memory if every iteration allocated afresh; each iteration
  // also sees the array zeroed again.
  const char* src =
      "__kernel void k(__global int* out, int n) {"
      "  int s = 0;"
      "  for (int i = 0; i < n; ++i) {"
      "    int t[4];"
      "    s += t[1];"
      "    t[1] = 7;"
      "    t[3] = i & 1;"
      "    s += t[3];"
      "  }"
      "  out[0] = s;"
      "}";
  for (int n : {100, 5000}) {
    auto out = RunOne(src, Dialect::kOpenCL, 1, {KernelArg::Value<int>(n)});
    ASSERT_TRUE(out.ok()) << "n=" << n << ": " << out.status().ToString();
    EXPECT_EQ((*out)[0], n / 2);
  }
}

TEST_F(BindingTest, LoopAddressTakenScalarReusesItsStorage) {
  auto out = RunOne(
      "__global__ void k(int* out, int n) {"
      "  int s = 0;"
      "  for (int i = 0; i < n; ++i) {"
      "    int x = i;"
      "    int* px = &x;"
      "    *px = *px + 1;"
      "    s += x;"
      "  }"
      "  out[0] = s;"
      "}",
      Dialect::kCUDA, 1, {KernelArg::Value<int>(20000)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0], 20000 * 20001 / 2);
}

TEST_F(BindingTest, RecursionKeepsALocalArrayPerFrame) {
  auto out = RunOne(
      "__device__ int fact(int n) {"
      "  int buf[2];"
      "  buf[0] = n;"
      "  if (n <= 1) return 1;"
      "  buf[1] = fact(n - 1);"
      "  return buf[0] * buf[1];"
      "}"
      "__global__ void k(int* out) { out[0] = fact(6); }",
      Dialect::kCUDA, 1);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0], 720);
}

TEST_F(BindingTest, ChainedReferenceParams) {
  // A reference parameter passed on by reference reaches the caller's
  // int, array element, struct member and vector component.
  auto out = RunOne(
      "struct S { int a; int b; };"
      "__device__ void inc(int& x) { x += 1; }"
      "__device__ void inc2(int& y) { inc(y); inc(y); }"
      "__global__ void k(int* out) {"
      "  int v = 1;"
      "  inc2(v);"
      "  int arr[3];"
      "  arr[1] = 20;"
      "  inc2(arr[1]);"
      "  struct S s;"
      "  s.b = 200;"
      "  inc2(s.b);"
      "  int2 q;"
      "  q.x = -1;"
      "  inc2(q.x);"
      "  out[0] = v; out[1] = arr[1]; out[2] = s.b; out[3] = q.x;"
      "}",
      Dialect::kCUDA, 4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, (std::vector<int>{3, 22, 202, 1}));
}

TEST_F(BindingTest, BlockAndForShadowing) {
  auto out = RunOne(
      "__kernel void k(__global int* out) {"
      "  int x = 1;"
      "  out[0] = x;"
      "  { int x = 2; out[1] = x; }"
      "  for (int x = 20; x < 21; ++x) out[2] = x;"
      "  out[3] = x;"
      "}",
      Dialect::kOpenCL, 4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, (std::vector<int>{1, 2, 20, 1}));
}

TEST_F(BindingTest, DeepRecursionReportsCallStackOverflow) {
  const char* src =
      "__device__ int down(int n) { return n <= 0 ? 0 : down(n - 1) + 1; }"
      "__global__ void k(int* out, int n) { out[0] = down(n); }";
  auto shallow = RunOne(src, Dialect::kCUDA, 1, {KernelArg::Value<int>(4)});
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  EXPECT_EQ((*shallow)[0], 4);
  auto deep = RunOne(src, Dialect::kCUDA, 1, {KernelArg::Value<int>(100)});
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("device call stack overflow"),
            std::string::npos)
      << deep.status().ToString();
}

/// A builtin called with the wrong number of arguments fails to compile
/// with a diagnostic naming it, instead of reading past the argument list
/// at launch time.
struct ArityCase {
  const char* name;
  Dialect dialect;
  const char* call;
  const char* expected;  // "<builtin>' expects <count> argument"
};

class BuiltinArityTest : public ::testing::TestWithParam<ArityCase> {};

TEST_P(BuiltinArityTest, RejectedByCompile) {
  const ArityCase& p = GetParam();
  std::string src =
      p.dialect == Dialect::kOpenCL
          ? std::string("__kernel void k(__global float* out) {")
          : std::string("__global__ void k(float* out) {");
  src += " float a = out[1], b = out[2]; out[0] = ";
  src += p.call;
  src += "; }";
  DiagnosticEngine diags;
  auto m = Module::Compile(src, p.dialect, diags);
  ASSERT_FALSE(m.ok()) << src;
  EXPECT_NE(diags.ToString().find(p.expected), std::string::npos)
      << diags.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Calls, BuiltinArityTest,
    ::testing::Values(
        ArityCase{"sqrt", Dialect::kOpenCL, "sqrt()",
                  "'sqrt' expects 1 argument, got 0"},
        ArityCase{"min", Dialect::kOpenCL, "min(1)",
                  "'min' expects 2 arguments, got 1"},
        ArityCase{"get_image_width", Dialect::kOpenCL, "get_image_width()",
                  "'get_image_width' expects 1 argument, got 0"},
        ArityCase{"convert_float", Dialect::kOpenCL, "convert_float()",
                  "'convert_float' expects 1 argument, got 0"},
        ArityCase{"vload4", Dialect::kOpenCL, "vload4(0)",
                  "'vload4' expects 2 arguments, got 1"},
        ArityCase{"fmin", Dialect::kOpenCL, "fmin(1.0f)",
                  "'fmin' expects 2 arguments, got 1"},
        ArityCase{"fma", Dialect::kOpenCL, "fma(a, b)",
                  "'fma' expects 3 arguments, got 2"},
        ArityCase{"sqrtf", Dialect::kCUDA, "sqrtf()",
                  "'sqrtf' expects 1 argument, got 0"},
        ArityCase{"shfl", Dialect::kCUDA, "__shfl()",
                  "'__shfl' expects 2 to 3 arguments, got 0"},
        ArityCase{"all", Dialect::kCUDA, "__all()",
                  "'__all' expects 1 argument, got 0"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace bridgecl::interp
