// Execution-level checks of translated built-ins: every OpenCL builtin the
// CL→CU rewriter maps (wrapper device functions, math renames, clamp/mix
// expansions, vload/vstore, conversions, reinterpretations) must compute
// the same value after translation, and every math/integer row of the
// builtin catalog must in both directions. Plus parse→print idempotence
// over all shipped application sources.
#include <gtest/gtest.h>

#include "apps/app.h"
#include "interp/executor.h"
#include "interp/module.h"
#include "lang/builtins.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/sema.h"
#include "simgpu/device.h"
#include "translator/classifier.h"
#include "translator/translate.h"

namespace bridgecl {
namespace {

using interp::KernelArg;
using interp::Module;
using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

/// Run a one-work-item kernel `k(out, in)` writing 8 floats to `out`, both
/// natively in `dialect` and after translation to the other dialect, and
/// return the two output arrays and the translated source.
struct NativeAndTranslated {
  std::vector<float> native;
  std::vector<float> translated;
  std::string translated_source;
};

StatusOr<NativeAndTranslated> RunNativeAndTranslated(
    const std::string& src, Dialect dialect, const std::vector<float>& in) {
  DiagnosticEngine diags;
  auto tr = dialect == Dialect::kOpenCL
                ? translator::TranslateOpenClToCuda(src, diags)
                : translator::TranslateCudaToOpenCl(src, diags);
  if (!tr.ok())
    return Status(tr.status().code(),
                  tr.status().message() + "\n" + diags.ToString());
  auto run = [&](const std::string& s,
                 Dialect d) -> StatusOr<std::vector<float>> {
    Device device(TitanProfile());
    DiagnosticEngine dg;
    auto m = Module::Compile(s, d, dg);
    if (!m.ok())
      return Status(m.status().code(),
                    m.status().message() + "\n" + dg.ToString() + "\n" + s);
    BRIDGECL_RETURN_IF_ERROR((*m)->LoadOn(device));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t out_va,
                              device.vm().AllocGlobal(8 * 4));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t in_va,
                              device.vm().AllocGlobal(8 * 4));
    std::memcpy(*device.vm().Resolve(in_va, 32), in.data(), 32);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(out_va),
                                   KernelArg::Pointer(in_va)};
    BRIDGECL_RETURN_IF_ERROR(
        interp::LaunchKernel(device, **m, "k", cfg, args).status());
    std::vector<float> out(8);
    std::memcpy(out.data(), *device.vm().Resolve(out_va, 32), 32);
    return out;
  };
  NativeAndTranslated r;
  BRIDGECL_ASSIGN_OR_RETURN(r.native, run(src, dialect));
  const Dialect other =
      dialect == Dialect::kOpenCL ? Dialect::kCUDA : Dialect::kOpenCL;
  BRIDGECL_ASSIGN_OR_RETURN(r.translated, run(tr->source, other));
  r.translated_source = tr->source;
  return r;
}

/// OpenCL kernel body, run natively and after CL→CU translation.
StatusOr<std::pair<std::vector<float>, std::vector<float>>> RunBoth(
    const std::string& body) {
  std::string src =
      "__kernel void k(__global float* out, __global float* in) {\n" + body +
      "\n}";
  BRIDGECL_ASSIGN_OR_RETURN(
      NativeAndTranslated r,
      RunNativeAndTranslated(
          src, Dialect::kOpenCL,
          {1.5f, -2.25f, 3.0f, 4.5f, -5.0f, 6.75f, 7.0f, 8.5f}));
  return std::make_pair(r.native, r.translated);
}

struct BuiltinCase {
  const char* name;
  const char* body;
};

class BuiltinTranslationTest
    : public ::testing::TestWithParam<BuiltinCase> {};

INSTANTIATE_TEST_SUITE_P(
    Builtins, BuiltinTranslationTest,
    ::testing::Values(
        BuiltinCase{"clamp_float",
                    "out[0] = clamp(in[0], 0.0f, 1.0f);"
                    "out[1] = clamp(in[1], -1.0f, 1.0f);"
                    "out[2] = clamp(in[2], 0.0f, 10.0f);"},
        BuiltinCase{"mix",
                    "out[0] = mix(in[0], in[2], 0.25f);"
                    "out[1] = mix(in[1], in[3], 0.75f);"},
        BuiltinCase{"mad_and_native",
                    "out[0] = mad(in[0], in[2], in[3]);"
                    "out[1] = native_exp(0.0f);"
                    "out[2] = native_sqrt(in[2] * in[2]);"
                    "out[3] = native_divide(in[3], 2.0f);"},
        BuiltinCase{"convert_and_as",
                    "int bits = as_int(in[0]);"
                    "out[0] = as_float(bits);"
                    "out[1] = (float)convert_int(in[2]);"
                    "float4 v = (float4)(in[0], in[1], in[2], in[3]);"
                    "int4 iv = convert_int4(v);"
                    "out[2] = (float)iv.z;"},
        BuiltinCase{"vload_vstore",
                    "float4 v = vload4(0, in);"
                    "v = v * 2.0f;"
                    "vstore4(v, 0, out);"
                    "float2 w = vload2(2, in);"
                    "vstore2(w, 2, out);"},
        BuiltinCase{"minmax_int",
                    "int a = (int)in[0];"
                    "int b = (int)in[3];"
                    "out[0] = (float)min(a, b);"
                    "out[1] = (float)max(a, b);"
                    "out[2] = (float)abs((int)in[1]);"
                    "out[3] = (float)clz(8);"
                    "out[4] = (float)popcount(255);"
                    "out[5] = (float)mul24(3, 7);"},
        BuiltinCase{"work_dim_and_offset",
                    "out[0] = (float)get_work_dim();"
                    "out[1] = (float)get_global_offset(0);"},
        BuiltinCase{"select_scalar",
                    "int cond = in[0] > 0.0f;"
                    "out[0] = select(in[1], in[2], cond);"
                    "out[1] = select(in[1], in[2], 0);"},
        BuiltinCase{"fences",
                    "out[0] = in[0];"
                    "mem_fence(CLK_GLOBAL_MEM_FENCE);"
                    "out[1] = in[1];"
                    "read_mem_fence(CLK_LOCAL_MEM_FENCE);"
                    "write_mem_fence(CLK_LOCAL_MEM_FENCE);"
                    "out[2] = in[2];"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(BuiltinTranslationTest, SameValueAfterTranslation) {
  auto r = RunBoth(GetParam().body);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->first, r->second);
}

// ===========================================================================
// Registry-driven: every math and integer row of the builtin catalog
// computes a bit-identical value natively and after translation, in each
// dialect the row is legal in; the translation spells the row's
// counterpart.
// ===========================================================================

struct RowCase {
  const lang::BuiltinInfo* row;
  Dialect dialect;
};

std::vector<RowCase> MathAndIntRows() {
  std::vector<RowCase> out;
  for (const lang::BuiltinInfo& row : lang::BuiltinTable()) {
    if (row.cls != lang::BuiltinClass::kMath &&
        row.cls != lang::BuiltinClass::kIntOps)
      continue;
    if (row.in_opencl) out.push_back({&row, Dialect::kOpenCL});
    if (row.in_cuda) out.push_back({&row, Dialect::kCUDA});
  }
  return out;
}

class BuiltinRowTest : public ::testing::TestWithParam<RowCase> {};

TEST_P(BuiltinRowTest, BitIdenticalAfterTranslation) {
  const lang::BuiltinInfo& row = *GetParam().row;
  const Dialect d = GetParam().dialect;
  // Integer functions get ints; the rest floats inside every math
  // function's domain.
  bool ints = row.cls == lang::BuiltinClass::kIntOps &&
              row.op != lang::BuiltinOp::kMix;
  std::string call = std::string(row.name) + "(";
  for (int i = 0; i < row.min_args; ++i) {
    if (i > 0) call += ", ";
    call += ints ? "(int)in[" + std::to_string(4 + i) + "]"
                 : "in[" + std::to_string(i) + "]";
  }
  call += ")";
  std::string src =
      std::string(d == Dialect::kOpenCL
                      ? "__kernel void k(__global float* out, "
                        "__global float* in) {"
                      : "__global__ void k(float* out, float* in) {") +
      " out[0] = (float)(" + call + "); }";
  auto r = RunNativeAndTranslated(
      src, d, {0.5f, 0.25f, 0.75f, 2.0f, -7.0f, 3.0f, 5.0f, 1.0f});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::memcmp(r->native.data(), r->translated.data(), 32), 0)
      << src << "\n" << r->translated_source;
  const char* spelled = row.counterpart != nullptr ? row.counterpart
                        : row.in_opencl && row.in_cuda ? row.name
                                                       : nullptr;
  if (spelled != nullptr) {
    EXPECT_NE(r->translated_source.find(std::string(spelled) + "("),
              std::string::npos)
        << r->translated_source;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, BuiltinRowTest, ::testing::ValuesIn(MathAndIntRows()),
    [](const auto& info) {
      return std::string(info.param.dialect == Dialect::kOpenCL ? "cl_"
                                                                : "cu_") +
             info.param.row->name;
    });

TEST(BuiltinRegistry, HardwareSpecificRowsAreNoCorrespondingFunctions) {
  int checked = 0;
  for (const lang::BuiltinInfo& row : lang::BuiltinTable()) {
    if (!row.hw_specific) continue;
    EXPECT_TRUE(row.in_cuda && !row.in_opencl && row.counterpart == nullptr)
        << row.name;
    std::string use;
    if (lang::FindBuiltinVariable(row.name, Dialect::kCUDA)) {
      use = std::string("out[0] = ") + row.name + ";";
    } else {
      use = std::string(row.name) + "(";
      for (int i = 0; i < row.min_args; ++i)
        use += i > 0 ? ", out[0]" : "out[0]";
      use += ");";
    }
    std::string src = "__global__ void k(int* out) { " + use + " }\n";
    DiagnosticEngine diags;
    auto tr = translator::TranslateCudaToOpenCl(src, diags);
    ASSERT_FALSE(tr.ok()) << src;
    EXPECT_EQ(tr.status().code(), StatusCode::kUntranslatable) << src;
    auto c = translator::ClassifyCudaApplication(src);
    EXPECT_FALSE(c.translatable) << src;
    EXPECT_EQ(c.Categories(),
              std::vector<translator::FailureCategory>{
                  translator::FailureCategory::kNoCorrespondingFunctions})
        << src;
    ++checked;
  }
  EXPECT_EQ(checked, 12);
}

TEST(BuiltinRegistry, CounterpartsResolveInTheOtherDialect) {
  for (const lang::BuiltinInfo& row : lang::BuiltinTable()) {
    if (row.in_opencl && row.in_cuda) {
      EXPECT_EQ(row.counterpart, nullptr) << row.name;
      continue;
    }
    const Dialect other = row.in_opencl ? Dialect::kCUDA : Dialect::kOpenCL;
    if (row.counterpart != nullptr) {
      EXPECT_TRUE(lang::FindBuiltinFunction(row.counterpart, other) ||
                  lang::FindBuiltinVariable(row.counterpart, other))
          << row.name << " -> " << row.counterpart;
    }
    if (row.wrapped) {
      lang::BuiltinRef w = lang::FindBuiltinFunction(
          std::string(lang::kWrapperPrefix) + row.name, Dialect::kCUDA);
      EXPECT_TRUE(w && w.wrapped && w.op() == row.op) << row.name;
    }
  }
}

// ===========================================================================
// Parse→print idempotence across every shipped application source, in its
// own dialect (the printer's output must be a fixed point).
// ===========================================================================
std::string Reprint(const std::string& src, Dialect d) {
  DiagnosticEngine diags;
  lang::ParseOptions popts;
  popts.dialect = d;
  auto tu = lang::ParseTranslationUnit(src, popts, diags);
  EXPECT_TRUE(tu.ok()) << diags.ToString() << "\n" << src;
  if (!tu.ok()) return "";
  lang::SemaOptions sopts;
  sopts.dialect = d;
  EXPECT_TRUE(lang::Analyze(**tu, sopts, diags).ok()) << diags.ToString();
  lang::PrintOptions oopts;
  oopts.dialect = d;
  return lang::PrintTranslationUnit(**tu, oopts);
}

TEST(AppSourceRoundTrip, AllAppSourcesArePrinterFixedPoints) {
  int checked = 0;
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      SCOPED_TRACE(app->name());
      if (app->has_opencl()) {
        std::string once = Reprint(app->OpenClSource(), Dialect::kOpenCL);
        ASSERT_FALSE(once.empty());
        EXPECT_EQ(once, Reprint(once, Dialect::kOpenCL));
        ++checked;
      }
      if (app->has_cuda()) {
        std::string once = Reprint(app->CudaSource(), Dialect::kCUDA);
        ASSERT_FALSE(once.empty());
        EXPECT_EQ(once, Reprint(once, Dialect::kCUDA));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 40);
}

// Every dual-dialect app's OpenCL version must itself be translatable to
// CUDA, and the result must compile — the Fig 7 precondition, asserted
// per app rather than via the bench.
TEST(AppSourceRoundTrip, AllOpenClAppSourcesTranslate) {
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      if (!app->has_opencl()) continue;
      SCOPED_TRACE(app->name());
      DiagnosticEngine diags;
      auto tr =
          translator::TranslateOpenClToCuda(app->OpenClSource(), diags);
      ASSERT_TRUE(tr.ok()) << diags.ToString();
      DiagnosticEngine diags2;
      auto m = Module::Compile(tr->source, Dialect::kCUDA, diags2);
      EXPECT_TRUE(m.ok()) << diags2.ToString() << "\n" << tr->source;
    }
  }
}

// And the symmetric direction: every dual-dialect app's CUDA version must
// translate to OpenCL and recompile (the Fig 8 precondition).
TEST(AppSourceRoundTrip, AllCudaAppSourcesTranslate) {
  for (auto maker : {apps::RodiniaApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      if (!app->has_cuda()) continue;
      SCOPED_TRACE(app->name());
      DiagnosticEngine diags;
      auto tr = translator::TranslateCudaToOpenCl(app->CudaSource(), diags);
      ASSERT_TRUE(tr.ok()) << diags.ToString();
      DiagnosticEngine diags2;
      auto m = Module::Compile(tr->source, Dialect::kOpenCL, diags2);
      EXPECT_TRUE(m.ok()) << diags2.ToString() << "\n" << tr->source;
    }
  }
}

}  // namespace
}  // namespace bridgecl
