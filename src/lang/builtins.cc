#include "lang/builtins.h"

#include <unordered_map>

#include "support/strings.h"

namespace bridgecl::lang {
namespace {

using C = BuiltinClass;
using Op = BuiltinOp;

// Row constructors, one per kind of spelling.
constexpr BuiltinInfo Row(const char* name, Op op, C cls, bool ocl, bool cuda,
                          int lo, int hi, const char* to = nullptr) {
  return {name, op, cls, ocl, cuda, static_cast<int8_t>(lo),
          static_cast<int8_t>(hi), to};
}
constexpr BuiltinInfo Cl(const char* name, Op op, C cls, int lo, int hi,
                         const char* to = nullptr) {
  return Row(name, op, cls, true, false, lo, hi, to);
}
constexpr BuiltinInfo Cu(const char* name, Op op, C cls, int lo, int hi,
                         const char* to = nullptr) {
  return Row(name, op, cls, false, true, lo, hi, to);
}
/// Math function with one spelling in both dialects.
constexpr BuiltinInfo Math(const char* name, Op op, int n) {
  return Row(name, op, C::kMath, true, true, n, n);
}
/// CUDA single-precision math spelling.
constexpr BuiltinInfo CuF(const char* name, Op op, int n, const char* to) {
  BuiltinInfo r = Cu(name, op, C::kMath, n, n, to);
  r.float_result = true;
  return r;
}
/// CUDA built-in with no OpenCL counterpart (§3.7).
constexpr BuiltinInfo Hw(BuiltinInfo r) { r.hw_specific = true; return r; }
/// OpenCL built-in that CUDA reaches through the wrapper library (§5).
constexpr BuiltinInfo Wrapped(BuiltinInfo r) { r.wrapped = true; return r; }
constexpr BuiltinInfo Const(const char* name, uint32_t value) {
  BuiltinInfo r = Row(name, Op::kConstant, C::kConstant, true, true, 0, 0);
  r.value = value;
  return r;
}

constexpr BuiltinInfo kTable[] = {
    // ---- work-item functions / CUDA index variables ----
    Cl("get_global_id", Op::kGlobalId, C::kWorkItem, 1, 1),
    Cl("get_local_id", Op::kLocalId, C::kWorkItem, 1, 1, "threadIdx"),
    Cl("get_group_id", Op::kGroupId, C::kWorkItem, 1, 1, "blockIdx"),
    Cl("get_global_size", Op::kGlobalSize, C::kWorkItem, 1, 1),
    Cl("get_local_size", Op::kLocalSize, C::kWorkItem, 1, 1, "blockDim"),
    Cl("get_num_groups", Op::kNumGroups, C::kWorkItem, 1, 1, "gridDim"),
    Cl("get_work_dim", Op::kWorkDim, C::kWorkItem, 0, 0),
    Cl("get_global_offset", Op::kGlobalOffset, C::kWorkItem, 1, 1),
    Cu("threadIdx", Op::kThreadIdx, C::kWorkItem, 0, 0, "get_local_id"),
    Cu("blockIdx", Op::kBlockIdx, C::kWorkItem, 0, 0, "get_group_id"),
    Cu("blockDim", Op::kBlockDim, C::kWorkItem, 0, 0, "get_local_size"),
    Cu("gridDim", Op::kGridDim, C::kWorkItem, 0, 0, "get_num_groups"),
    Hw(Cu("warpSize", Op::kWarpSize, C::kWorkItem, 0, 0)),

    // ---- synchronization ----
    Cl("barrier", Op::kBarrier, C::kSync, 1, 1, "__syncthreads"),
    Cl("mem_fence", Op::kMemFence, C::kSync, 1, 1, "__threadfence_block"),
    Cl("read_mem_fence", Op::kMemFence, C::kSync, 1, 1, "__threadfence_block"),
    Cl("write_mem_fence", Op::kMemFence, C::kSync, 1, 1,
       "__threadfence_block"),
    Cu("__syncthreads", Op::kBarrier, C::kSync, 0, 0, "barrier"),
    Cu("__threadfence", Op::kThreadFence, C::kSync, 0, 0, "mem_fence"),
    Cu("__threadfence_block", Op::kMemFence, C::kSync, 0, 0, "mem_fence"),

    // ---- math (overloaded by argument type in both models) ----
    Math("sqrt", Op::kSqrt, 1),     Math("rsqrt", Op::kRsqrt, 1),
    Math("cbrt", Op::kCbrt, 1),     Math("exp", Op::kExp, 1),
    Math("exp2", Op::kExp2, 1),     Math("log", Op::kLog, 1),
    Math("log2", Op::kLog2, 1),     Math("log10", Op::kLog10, 1),
    Math("sin", Op::kSin, 1),       Math("cos", Op::kCos, 1),
    Math("tan", Op::kTan, 1),       Math("asin", Op::kAsin, 1),
    Math("acos", Op::kAcos, 1),     Math("atan", Op::kAtan, 1),
    Math("atan2", Op::kAtan2, 2),   Math("sinh", Op::kSinh, 1),
    Math("cosh", Op::kCosh, 1),     Math("tanh", Op::kTanh, 1),
    Math("fabs", Op::kFabs, 1),     Math("floor", Op::kFloor, 1),
    Math("ceil", Op::kCeil, 1),     Math("trunc", Op::kTrunc, 1),
    Math("round", Op::kRound, 1),   Math("fmin", Op::kFmin, 2),
    Math("fmax", Op::kFmax, 2),     Math("fmod", Op::kFmod, 2),
    Math("pow", Op::kPow, 2),       Math("fma", Op::kFma, 3),
    Cl("mad", Op::kFma, C::kMath, 3, 3, "fma"),
    Cl("native_sin", Op::kSin, C::kMath, 1, 1, "__sinf"),
    Cl("native_cos", Op::kCos, C::kMath, 1, 1, "__cosf"),
    Cl("native_exp", Op::kExp, C::kMath, 1, 1, "__expf"),
    Cl("native_log", Op::kLog, C::kMath, 1, 1, "__logf"),
    Cl("native_sqrt", Op::kSqrt, C::kMath, 1, 1, "sqrtf"),
    Cl("native_rsqrt", Op::kRsqrt, C::kMath, 1, 1, "rsqrtf"),
    Cl("native_divide", Op::kDivide, C::kMath, 2, 2, "__fdividef"),
    Cl("half_sqrt", Op::kSqrt, C::kMath, 1, 1, "sqrtf"),
    // CUDA single-precision spellings.
    CuF("sqrtf", Op::kSqrt, 1, "sqrt"),   CuF("rsqrtf", Op::kRsqrt, 1, "rsqrt"),
    CuF("expf", Op::kExp, 1, "exp"),      CuF("exp2f", Op::kExp2, 1, "exp2"),
    CuF("logf", Op::kLog, 1, "log"),      CuF("log2f", Op::kLog2, 1, "log2"),
    CuF("log10f", Op::kLog10, 1, "log10"), CuF("sinf", Op::kSin, 1, "sin"),
    CuF("cosf", Op::kCos, 1, "cos"),      CuF("tanf", Op::kTan, 1, "tan"),
    CuF("asinf", Op::kAsin, 1, "asin"),   CuF("acosf", Op::kAcos, 1, "acos"),
    CuF("atanf", Op::kAtan, 1, "atan"),   CuF("atan2f", Op::kAtan2, 2, "atan2"),
    CuF("fabsf", Op::kFabs, 1, "fabs"),   CuF("floorf", Op::kFloor, 1, "floor"),
    CuF("ceilf", Op::kCeil, 1, "ceil"),   CuF("fminf", Op::kFmin, 2, "fmin"),
    CuF("fmaxf", Op::kFmax, 2, "fmax"),   CuF("fmodf", Op::kFmod, 2, "fmod"),
    CuF("powf", Op::kPow, 2, "pow"),      CuF("fmaf", Op::kFma, 3, "fma"),
    CuF("__expf", Op::kExp, 1, "native_exp"),
    CuF("__logf", Op::kLog, 1, "native_log"),
    CuF("__sinf", Op::kSin, 1, "native_sin"),
    CuF("__cosf", Op::kCos, 1, "native_cos"),
    CuF("__fdividef", Op::kDivide, 2, "native_divide"),

    // ---- integer and common functions ----
    Row("min", Op::kMin, C::kIntOps, true, true, 2, 2),
    Row("max", Op::kMax, C::kIntOps, true, true, 2, 2),
    Row("abs", Op::kAbs, C::kIntOps, true, true, 1, 1),
    Cl("clamp", Op::kClamp, C::kIntOps, 3, 3),
    Cl("mix", Op::kMix, C::kIntOps, 3, 3),
    Cl("select", Op::kSelect, C::kIntOps, 3, 3),
    Cl("mul24", Op::kMul24, C::kIntOps, 2, 2, "__mul24"),
    Cl("popcount", Op::kPopcount, C::kIntOps, 1, 1, "__popc"),
    Cl("clz", Op::kClz, C::kIntOps, 1, 1, "__clz"),
    Cu("__mul24", Op::kMul24, C::kIntOps, 2, 2, "mul24"),
    Cu("__popc", Op::kPopcount, C::kIntOps, 1, 1, "popcount"),
    Cu("__clz", Op::kClz, C::kIntOps, 1, 1, "clz"),

    // ---- atomics (§3.7: inc/dec semantics differ) ----
    Cl("atomic_add", Op::kAtomicAdd, C::kAtomic, 2, 2, "atomicAdd"),
    Cl("atomic_sub", Op::kAtomicSub, C::kAtomic, 2, 2, "atomicSub"),
    Cl("atomic_inc", Op::kAtomicInc, C::kAtomic, 1, 1, "atomicInc"),
    Cl("atomic_dec", Op::kAtomicDec, C::kAtomic, 1, 1, "atomicDec"),
    Cl("atomic_xchg", Op::kAtomicXchg, C::kAtomic, 2, 2, "atomicExch"),
    Cl("atomic_cmpxchg", Op::kAtomicCmpxchg, C::kAtomic, 3, 3, "atomicCAS"),
    Cl("atomic_min", Op::kAtomicMin, C::kAtomic, 2, 2, "atomicMin"),
    Cl("atomic_max", Op::kAtomicMax, C::kAtomic, 2, 2, "atomicMax"),
    Cl("atomic_and", Op::kAtomicAnd, C::kAtomic, 2, 2, "atomicAnd"),
    Cl("atomic_or", Op::kAtomicOr, C::kAtomic, 2, 2, "atomicOr"),
    Cl("atomic_xor", Op::kAtomicXor, C::kAtomic, 2, 2, "atomicXor"),
    Cl("atom_add", Op::kAtomicAdd, C::kAtomic, 2, 2, "atomicAdd"),
    Cl("atom_inc", Op::kAtomicInc, C::kAtomic, 1, 1, "atomicInc"),
    Cu("atomicAdd", Op::kAtomicAdd, C::kAtomic, 2, 2, "atomic_add"),
    Cu("atomicSub", Op::kAtomicSub, C::kAtomic, 2, 2, "atomic_sub"),
    Cu("atomicInc", Op::kAtomicIncWrap, C::kAtomic, 2, 2),
    Cu("atomicDec", Op::kAtomicDecWrap, C::kAtomic, 2, 2),
    Cu("atomicExch", Op::kAtomicXchg, C::kAtomic, 2, 2, "atomic_xchg"),
    Cu("atomicCAS", Op::kAtomicCmpxchg, C::kAtomic, 3, 3, "atomic_cmpxchg"),
    Cu("atomicMin", Op::kAtomicMin, C::kAtomic, 2, 2, "atomic_min"),
    Cu("atomicMax", Op::kAtomicMax, C::kAtomic, 2, 2, "atomic_max"),
    Cu("atomicAnd", Op::kAtomicAnd, C::kAtomic, 2, 2, "atomic_and"),
    Cu("atomicOr", Op::kAtomicOr, C::kAtomic, 2, 2, "atomic_or"),
    Cu("atomicXor", Op::kAtomicXor, C::kAtomic, 2, 2, "atomic_xor"),

    // ---- images / textures (§5) ----
    Wrapped(Cl("read_imagef", Op::kReadImageF, C::kImage, 2, 3)),
    Wrapped(Cl("read_imagei", Op::kReadImageI, C::kImage, 2, 3)),
    Wrapped(Cl("read_imageui", Op::kReadImageUI, C::kImage, 2, 3)),
    Wrapped(Cl("write_imagef", Op::kWriteImage, C::kImage, 3, 3)),
    Wrapped(Cl("write_imagei", Op::kWriteImage, C::kImage, 3, 3)),
    Wrapped(Cl("write_imageui", Op::kWriteImage, C::kImage, 3, 3)),
    Wrapped(Cl("get_image_width", Op::kImageWidth, C::kImage, 1, 1)),
    Wrapped(Cl("get_image_height", Op::kImageHeight, C::kImage, 1, 1)),
    // Texture fetches: the texture reference plus one coordinate per
    // dimension.
    Cu("tex1Dfetch", Op::kTexFetch, C::kImage, 2, 2),
    Cu("tex1D", Op::kTexFetch, C::kImage, 2, 2),
    Cu("tex2D", Op::kTexFetch, C::kImage, 3, 3),
    Cu("tex3D", Op::kTexFetch, C::kImage, 4, 4),

    // ---- warp-level / hardware-specific CUDA built-ins (§3.7) ----
    Hw(Cu("__shfl", Op::kShfl, C::kWarp, 2, 3)),
    Hw(Cu("__shfl_up", Op::kShfl, C::kWarp, 2, 3)),
    Hw(Cu("__shfl_down", Op::kShfl, C::kWarp, 2, 3)),
    Hw(Cu("__shfl_xor", Op::kShfl, C::kWarp, 2, 3)),
    Hw(Cu("__all", Op::kAll, C::kWarp, 1, 1)),
    Hw(Cu("__any", Op::kAny, C::kWarp, 1, 1)),
    Hw(Cu("__ballot", Op::kBallot, C::kWarp, 1, 1)),
    Hw(Cu("clock", Op::kClock, C::kClock, 0, 0)),
    Hw(Cu("clock64", Op::kClock64, C::kClock, 0, 0)),
    Hw(Cu("__prof_trigger", Op::kProfTrigger, C::kClock, 1, 1)),
    Hw(Cu("assert", Op::kAssert, C::kAssert, 1, 1)),
    // Table 3 files device printf under "Unsupported language
    // extensions", not under missing functions.
    Cu("printf", Op::kPrintf, C::kAssert, 1, kVariadic),

    // ---- named constants ----
    Const("CLK_LOCAL_MEM_FENCE", 1),  // fence flags only need to differ
    Const("CLK_GLOBAL_MEM_FENCE", 2),
    Const("CLK_NORMALIZED_COORDS_FALSE", 0),
    Const("CLK_NORMALIZED_COORDS_TRUE", kSamplerNormalizedCoords),
    Const("CLK_ADDRESS_NONE", 0),
    Const("CLK_ADDRESS_CLAMP", kSamplerAddressClamp),
    Const("CLK_ADDRESS_CLAMP_TO_EDGE", kSamplerAddressClamp),
    Const("CLK_FILTER_NEAREST", 0),
    Const("CLK_FILTER_LINEAR", kSamplerFilterLinear),
};

// Generic families: one row per prefix, the rest of the spelling parsed.
constexpr BuiltinInfo kMakeVector =
    Cu("make_", Op::kMakeVector, C::kVector, 1, 16);  // arity = width
constexpr BuiltinInfo kConvert =
    Wrapped(Cl("convert_", Op::kConvert, C::kVector, 1, 1));
constexpr BuiltinInfo kAs = Wrapped(Cl("as_", Op::kAs, C::kVector, 1, 1));
constexpr BuiltinInfo kVload =
    Wrapped(Cl("vload", Op::kVload, C::kVector, 2, 2));
constexpr BuiltinInfo kVstore =
    Wrapped(Cl("vstore", Op::kVstore, C::kVector, 3, 3));
/// CL_* / cuda* host-API enums (and unknown CLK_* flags) in device code:
/// typed, printable, but without a device value.
constexpr BuiltinInfo kHostConstant =
    Row("", Op::kHostConstant, C::kConstant, true, true, 0, 0);

/// CUDA spells its work-item queries as variables (threadIdx, warpSize).
bool IsVariable(const BuiltinInfo& row) {
  return row.cls == C::kConstant || (row.cls == C::kWorkItem && row.in_cuda);
}

bool LegalIn(const BuiltinInfo& row, Dialect dialect) {
  return dialect == Dialect::kOpenCL ? row.in_opencl : row.in_cuda;
}

const BuiltinInfo* FindRow(std::string_view name) {
  static const auto kIndex = [] {
    std::unordered_map<std::string_view, const BuiltinInfo*> index;
    for (const BuiltinInfo& row : kTable) index.emplace(row.name, &row);
    return index;
  }();
  auto it = kIndex.find(name);
  return it == kIndex.end() ? nullptr : it->second;
}

/// "float4" → (kFloat, 4); with `allow_scalar`, "float" → (kFloat, 0).
bool ParseTargetType(std::string_view name, bool allow_scalar, ScalarKind* k,
                     int* w) {
  if (ParseVectorTypeName(std::string(name), k, w)) return true;
  // A scalar spelling parses as its one-component vector; OpenCL has no
  // longlong.
  if (!allow_scalar || !ParseVectorTypeName(std::string(name) + "1", k, w))
    return false;
  *w = 0;
  return *k != ScalarKind::kLongLong && *k != ScalarKind::kULongLong;
}

}  // namespace

BuiltinRef FindBuiltinFunction(std::string_view name, Dialect dialect) {
  if (dialect == Dialect::kCUDA && name.starts_with(kWrapperPrefix)) {
    BuiltinRef inner = FindBuiltinFunction(
        name.substr(kWrapperPrefix.size()), Dialect::kOpenCL);
    inner.wrapped = static_cast<bool>(inner);
    return inner;
  }
  if (const BuiltinInfo* row = FindRow(name)) {
    if (IsVariable(*row) || !LegalIn(*row, dialect)) return {};
    return {row};
  }
  ScalarKind k = ScalarKind::kVoid;
  int w = 0;
  if (dialect == Dialect::kCUDA) {
    if (name.starts_with("make_") &&
        ParseTargetType(name.substr(5), false, &k, &w))
      return {&kMakeVector, k, w};
    return {};
  }
  for (const BuiltinInfo* family : {&kConvert, &kAs}) {
    std::string_view prefix = family->name;
    if (name.starts_with(prefix) &&
        ParseTargetType(name.substr(prefix.size()), true, &k, &w))
      return {family, k, w};
  }
  // vloadN/vstoreN: N parsed like a vector width, one component excluded.
  for (const BuiltinInfo* family : {&kVload, &kVstore}) {
    std::string_view prefix = family->name;
    if (name.starts_with(prefix) &&
        ParseTargetType("int" + std::string(name.substr(prefix.size())),
                        false, &k, &w) &&
        w > 1)
      return {family, ScalarKind::kVoid, w};
  }
  return {};
}

BuiltinRef FindBuiltinVariable(std::string_view name, Dialect dialect) {
  if (const BuiltinInfo* row = FindRow(name))
    return IsVariable(*row) && LegalIn(*row, dialect) ? BuiltinRef{row}
                                                      : BuiltinRef{};
  for (std::string_view prefix : {"CLK_", "CL_", "cuda"})
    if (name.starts_with(prefix)) return {&kHostConstant};
  return {};
}

std::span<const BuiltinInfo> BuiltinTable() { return kTable; }

std::optional<std::string> BuiltinArityError(const BuiltinRef& ref,
                                             std::string_view spelling,
                                             size_t nargs) {
  int lo = ref.info->min_args;
  int hi = ref.info->max_args;
  if (ref.op() == Op::kMakeVector) lo = hi = ref.width;
  int n = static_cast<int>(nargs);
  if (n >= lo && (hi == kVariadic || n <= hi)) return std::nullopt;
  std::string expected = std::to_string(lo);
  if (hi != lo)
    expected += hi == kVariadic ? " or more" : " to " + std::to_string(hi);
  return StrFormat("builtin '%.*s' expects %s argument%s, got %d",
                   static_cast<int>(spelling.size()), spelling.data(),
                   expected.c_str(), hi == 1 ? "" : "s", n);
}

Type::Ptr BuiltinResultType(const BuiltinRef& ref,
                            const std::vector<Type::Ptr>& args) {
  Type::Ptr arg0 = !args.empty() && args[0] ? args[0] : Type::FloatTy();
  switch (ref.info->cls) {
    case C::kWorkItem:
      if (!ref.info->in_cuda) return Type::SizeTy();
      return ref.op() == Op::kWarpSize ? Type::IntTy()
                                       : Type::Vector(ScalarKind::kUInt, 3);
    case C::kConstant:
      return Type::UIntTy();
    case C::kSync:
    case C::kAssert:
      return Type::VoidTy();
    case C::kMath:
      if (ref.info->float_result) return Type::FloatTy();
      if (arg0->is_vector() || arg0->is_float()) return arg0;
      return Type::Scalar(ScalarKind::kDouble);
    case C::kIntOps:
      return arg0;
    case C::kAtomic:
      // Atomics return the old value: element type of the pointer arg.
      return arg0->is_pointer() ? arg0->pointee() : Type::IntTy();
    case C::kImage:
      switch (ref.op()) {
        case Op::kReadImageF: return Type::Vector(ScalarKind::kFloat, 4);
        case Op::kReadImageI: return Type::Vector(ScalarKind::kInt, 4);
        case Op::kReadImageUI: return Type::Vector(ScalarKind::kUInt, 4);
        case Op::kWriteImage: return Type::VoidTy();
        case Op::kTexFetch:
          // The bound texture reference's texel type.
          if (!arg0->is_texture()) return Type::FloatTy();
          return arg0->vector_width() == 1
                     ? Type::Scalar(arg0->scalar_kind())
                     : Type::Vector(arg0->scalar_kind(), arg0->vector_width());
        default: return Type::IntTy();
      }
    case C::kVector:
      switch (ref.op()) {
        case Op::kVstore: return Type::VoidTy();
        case Op::kVload:
          if (args.size() < 2 || !args[1] || !args[1]->is_pointer())
            return arg0;
          return Type::Vector(args[1]->pointee()->scalar_kind(), ref.width);
        default:  // make_ / convert_ / as_: the spelled target type
          return ref.width == 0 ? Type::Scalar(ref.elem)
                                : Type::Vector(ref.elem, ref.width);
      }
    case C::kWarp:
      return ref.op() == Op::kBallot ? Type::UIntTy()
             : ref.op() == Op::kShfl ? arg0
                                     : Type::IntTy();
    case C::kClock:
      return ref.op() == Op::kClock64 ? Type::Scalar(ScalarKind::kLongLong)
                                      : Type::IntTy();
  }
  return Type::IntTy();
}

}  // namespace bridgecl::lang
