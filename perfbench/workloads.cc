#include "workloads.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/failure_catalog.h"
#include "cl2cu/cl_on_cuda.h"
#include "cu2cl/cuda_on_cl.h"
#include "translator/classifier.h"

namespace perfbench {

using bridgecl::Status;
using bridgecl::StatusOr;
namespace apps = bridgecl::apps;
namespace mocl = bridgecl::mocl;
namespace mcuda = bridgecl::mcuda;
namespace simgpu = bridgecl::simgpu;

const char* BindingSlug(Binding b) {
  switch (b) {
    case Binding::kClNative: return "cl_native_titan";
    case Binding::kCl2Cu: return "cl2cu_titan";
    case Binding::kCudaNative: return "cuda_native_titan";
    case Binding::kCu2Cl: return "cu2cl_titan";
    case Binding::kCu2ClHd7970: return "cu2cl_hd7970";
  }
  return "?";
}

bool IsWrapped(Binding b) {
  return b == Binding::kCl2Cu || b == Binding::kCu2Cl ||
         b == Binding::kCu2ClHd7970;
}

bool IsCudaSource(Binding b) {
  return b == Binding::kCudaNative || b == Binding::kCu2Cl ||
         b == Binding::kCu2ClHd7970;
}

std::string Op::Key() const {
  const char* kind_name = kind == OpKind::kRun     ? "run"
                          : kind == OpKind::kBuild ? "build"
                                                   : "classify";
  return std::string(kind_name) + "\t" + name + "\t" +
         (kind == OpKind::kClassify ? "classifier" : BindingSlug(binding));
}

namespace {

void Shuffle(std::vector<size_t>& ops, uint64_t seed) {
  uint64_t state = Mix(seed);
  for (size_t i = ops.size(); i > 1; --i) {
    state = Mix(state);
    std::swap(ops[i - 1], ops[state % i]);
  }
}

// First __global__ function name in a CUDA source, or "".
std::string FirstKernel(const std::string& src) {
  size_t at = src.find("__global__");
  if (at == std::string::npos) return "";
  size_t paren = src.find('(', at);
  if (paren == std::string::npos) return "";
  size_t end = paren;
  while (end > at && src[end - 1] == ' ') --end;
  size_t begin = end;
  while (begin > at && (std::isalnum(static_cast<unsigned char>(
                            src[begin - 1])) ||
                        src[begin - 1] == '_'))
    --begin;
  return src.substr(begin, end - begin);
}

Op MakeOp(OpKind kind, Binding binding, std::string name,
          std::string source) {
  Op op;
  op.kind = kind;
  op.binding = binding;
  op.name = std::move(name);
  op.source = std::move(source);
  return op;
}

std::vector<apps::AppPtr> AllApps() {
  std::vector<apps::AppPtr> all;
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps,
                     apps::RodiniaUntranslatableApps})
    for (auto& app : maker()) all.push_back(std::move(app));
  return all;
}

void AddProbeSources(Workload& w, const apps::App& app) {
  if (app.has_opencl())
    w.probe_sources.push_back({app.OpenClSource(), false, ""});
  if (app.has_cuda())
    w.probe_sources.push_back({app.CudaSource(), true, app.FullCudaSource()});
}

void AddRuns(Workload& w, apps::App& app,
             std::initializer_list<Binding> bindings) {
  for (Binding b : bindings) {
    if (IsCudaSource(b) ? !app.has_cuda() : !app.has_opencl()) continue;
    w.ops.push_back(MakeOp(OpKind::kRun, b, app.name(), ""));
    w.ops.back().app = &app;
  }
}

bool IsInplaceApp(const std::string& name) {
  return name == "lud" || name == "gaussian" || name == "nw" ||
         name == "srad";
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "build_cold") {
    w.salted = true;
    w.apps = AllApps();
    for (auto& app : w.apps) {
      AddProbeSources(w, *app);
      if (app->has_opencl()) {
        for (Binding b : {Binding::kClNative, Binding::kCl2Cu})
          w.ops.push_back(MakeOp(OpKind::kBuild, b, app->name() + ".cl",
                                 app->OpenClSource()));
      }
      if (app->has_cuda()) {
        for (Binding b : {Binding::kCudaNative, Binding::kCu2Cl}) {
          w.ops.push_back(MakeOp(OpKind::kBuild, b, app->name() + ".cu",
                                 app->CudaSource()));
          w.ops.back().kernel = FirstKernel(app->CudaSource());
        }
      }
    }
    for (const apps::CatalogEntry& e : apps::FailureCatalog())
      w.ops.push_back(MakeOp(OpKind::kClassify, Binding::kClNative, e.name,
                             e.source));
  } else if (name == "corpus") {
    for (auto& app : AllApps())
      if (!IsInplaceApp(app->name())) w.apps.push_back(std::move(app));
    for (auto& app : w.apps) {
      AddProbeSources(w, *app);
      AddRuns(w, *app,
              {Binding::kClNative, Binding::kCl2Cu, Binding::kCudaNative,
               Binding::kCu2Cl, Binding::kCu2ClHd7970});
    }
  } else if (name == "inplace") {
    // gaussian runs in both directions and lud in the CUDA one; nw and
    // srad are left out (README.md).
    for (auto& app : AllApps())
      if (app->name() == "lud" || app->name() == "gaussian")
        w.apps.push_back(std::move(app));
    for (auto& app : w.apps) {
      AddProbeSources(w, *app);
      if (app->name() == "lud")
        AddRuns(w, *app, {Binding::kCudaNative, Binding::kCu2Cl});
      else
        AddRuns(w, *app,
                {Binding::kClNative, Binding::kCl2Cu, Binding::kCudaNative,
                 Binding::kCu2Cl});
    }
  } else {
    return bridgecl::InvalidArgumentError("unknown workload '" + name + "'");
  }
  for (size_t i = 0; i < w.ops.size(); ++i) w.order.push_back(i);
  Shuffle(w.order, seed);
  return w;
}

OpResult RunOp(const Op& op, uint64_t salt, SpanRecorder* rec) {
  OpResult r;
  if (op.kind == OpKind::kClassify) {
    r.categories = JoinCategories(
        bridgecl::translator::ClassifyCudaApplication(
            SaltSource(op.source, true, salt))
            .Categories());
    return r;
  }

  const std::string source =
      op.kind == OpKind::kBuild
          ? SaltSource(op.source, IsCudaSource(op.binding), salt)
          : std::string();
  auto run_cl = [&](mocl::OpenClApi& cl) -> Status {
    if (op.kind == OpKind::kRun) return op.app->RunCl(cl, &r.checksum);
    auto program = cl.CreateProgramWithSource(source);
    if (!program.ok()) return program.status();
    return cl.BuildProgram(*program);
  };
  auto run_cuda = [&](mcuda::CudaApi& cu) -> Status {
    if (op.kind == OpKind::kRun) return op.app->RunCuda(cu, &r.checksum);
    Status st = cu.RegisterModule(source);
    if (!st.ok() || op.kernel.empty()) return st;
    return cu.SetKernelRegisters(op.kernel, 32);
  };
  // Taps are optional: with `rec` null the stack is the plain one.
  auto tap_cl = [&](mocl::OpenClApi& api, Boundary b) {
    return rec ? TapOpenCl(api, *rec, b) : nullptr;
  };
  auto tap_cuda = [&](mcuda::CudaApi& api, Boundary b) {
    return rec ? TapCuda(api, *rec, b) : nullptr;
  };

  simgpu::Device device(op.binding == Binding::kCu2ClHd7970
                            ? simgpu::HD7970Profile()
                            : simgpu::TitanProfile());
  double build_us = 0;
  switch (op.binding) {
    case Binding::kClNative: {
      auto cl = mocl::CreateNativeClApi(device);
      auto tap = tap_cl(*cl, Boundary::kClNative);
      r.status = run_cl(tap ? *tap : *cl);
      build_us = cl->BuildTimeUs();
      break;
    }
    case Binding::kCudaNative: {
      auto cu = mcuda::CreateNativeCudaApi(device);
      auto tap = tap_cuda(*cu, Boundary::kCudaNative);
      r.status = run_cuda(tap ? *tap : *cu);
      break;
    }
    case Binding::kCl2Cu: {
      auto cu = mcuda::CreateNativeCudaApi(device);
      auto inner = tap_cuda(*cu, Boundary::kCl2CuInner);
      auto cl = bridgecl::cl2cu::CreateClOnCudaApi(inner ? *inner : *cu);
      auto outer = tap_cl(*cl, Boundary::kCl2CuOuter);
      r.status = run_cl(outer ? *outer : *cl);
      build_us = cl->BuildTimeUs();
      break;
    }
    case Binding::kCu2Cl:
    case Binding::kCu2ClHd7970: {
      auto cl = mocl::CreateNativeClApi(device);
      auto inner = tap_cl(*cl, Boundary::kCu2ClInner);
      auto cu = bridgecl::cu2cl::CreateCudaOnClApi(inner ? *inner : *cl);
      auto outer = tap_cuda(*cu, Boundary::kCu2ClOuter);
      r.status = run_cuda(outer ? *outer : *cu);
      build_us = cl->BuildTimeUs();
      break;
    }
  }
  r.sim_us = device.now_us() - build_us;
  r.stats = device.stats();
  return r;
}

std::string Outcome(const Op& op, const OpResult& r) {
  char buf[64];
  if (op.kind == OpKind::kClassify)
    return "classified " +
           (r.categories.empty() ? std::string("translatable") : r.categories);
  if (!r.status.ok()) {
    std::snprintf(buf, sizeof buf, "error %s/%d",
                  bridgecl::StatusCodeName(r.status.code()),
                  r.status.api_code());
    return buf;
  }
  if (op.kind == OpKind::kBuild) return "ok";
  std::snprintf(buf, sizeof buf, "ok %.17g", r.checksum);
  return buf;
}

std::string JoinCategories(
    const std::vector<bridgecl::translator::FailureCategory>& categories) {
  std::string out;
  for (auto c : categories) {
    if (!out.empty()) out += ",";
    out += bridgecl::translator::FailureCategoryName(c);
  }
  return out;
}

std::string Table3Of(const std::string& cuda_source) {
  auto c = bridgecl::translator::ClassifyCudaApplication(cuda_source);
  return c.translatable ? "translatable" : JoinCategories(c.Categories());
}

std::string Table3SourceOf(const Op& op) {
  if (op.kind == OpKind::kClassify || !IsCudaSource(op.binding)) return "";
  return op.kind == OpKind::kRun ? op.app->FullCudaSource() : op.source;
}

StatusOr<ExpectedTable> LoadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) return bridgecl::NotFoundError("cannot read " + path);
  ExpectedTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // kind \t name \t binding \t outcome \t table3
    std::vector<std::string> f;
    std::stringstream ss(line);
    for (std::string field; std::getline(ss, field, '\t');) f.push_back(field);
    if (f.size() != 5)
      return bridgecl::InvalidArgumentError("malformed row in " + path +
                                            ": " + line);
    table[f[0] + "\t" + f[1] + "\t" + f[2]] = {f[3], f[4]};
  }
  return table;
}

}  // namespace perfbench
