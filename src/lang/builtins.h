// The one catalog of device-code built-ins in both dialects (functions,
// CUDA index variables, named constants): the only module that knows
// builtin spellings. Sema resolves each builtin call and identifier to a
// row once and stores it on the DeclRefExpr; the interpreter switches on
// its op, and the translators read its counterpart spelling (§3.3) and
// hardware-specific flag (§3.7, Table 3). Adding a builtin means one row
// here plus one `case` where its behavior differs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/dialect.h"
#include "lang/type.h"

namespace bridgecl::lang {

enum class BuiltinClass : uint8_t {
  kWorkItem,    // get_global_id / threadIdx ...
  kSync,        // barrier / __syncthreads / mem_fence / __threadfence
  kMath,        // sqrt, exp, fmin, ...
  kIntOps,      // min/max/abs/clamp/__popc/__clz/mul24
  kAtomic,      // atomic_* / atomic*
  kImage,       // read_imagef / write_imagef / tex2D ...
  kVector,      // make_float4, convert_int4, as_float, vload/vstore
  kWarp,        // CUDA __shfl/__all/__any/__ballot  (no OpenCL counterpart)
  kClock,       // CUDA clock()/clock64()            (no OpenCL counterpart)
  kAssert,      // CUDA assert/printf
  kConstant,    // CLK_* flags and host-API enums spelled in device code
};

/// What a builtin does: the key every consumer switches on. Spellings with
/// the same behavior share an op (sqrt/sqrtf/native_sqrt/half_sqrt).
enum class BuiltinOp : uint8_t {
  kNone,
  // OpenCL work-item functions; CUDA index variables; named constants (a
  // CLK_* value, or a host-API enum with no device value).
  kGlobalId, kLocalId, kGroupId, kGlobalSize, kLocalSize, kNumGroups,
  kWorkDim, kGlobalOffset, kThreadIdx, kBlockIdx, kBlockDim, kGridDim,
  kWarpSize, kConstant, kHostConstant,
  // Synchronization: barrier; work-group and device-wide fences.
  kBarrier, kMemFence, kThreadFence,
  // Elementwise math: unary, binary, fused multiply-add.
  kSqrt, kRsqrt, kCbrt, kExp, kExp2, kLog, kLog2, kLog10, kSin, kCos, kTan,
  kAsin, kAcos, kAtan, kSinh, kCosh, kTanh, kFabs, kFloor, kCeil, kTrunc,
  kRound, kAtan2, kFmin, kFmax, kFmod, kPow, kDivide, kFma,
  // Integer and common functions.
  kMin, kMax, kAbs, kClamp, kMix, kSelect, kMul24, kPopcount, kClz,
  // Atomics. Inc/Dec are OpenCL's unconditional +-1; the *Wrap forms are
  // CUDA's atomicInc/atomicDec, which wrap at a limit argument (§3.7).
  kAtomicAdd, kAtomicSub, kAtomicInc, kAtomicDec, kAtomicIncWrap,
  kAtomicDecWrap, kAtomicXchg, kAtomicCmpxchg, kAtomicMin, kAtomicMax,
  kAtomicAnd, kAtomicOr, kAtomicXor,
  // Images and textures (§5).
  kReadImageF, kReadImageI, kReadImageUI, kWriteImage, kImageWidth,
  kImageHeight, kTexFetch,
  // Vector families (element kind and width on the BuiltinRef); CUDA warp,
  // clock and diagnostic built-ins.
  kMakeVector, kConvert, kAs, kVload, kVstore, kShfl, kAll, kAny, kBallot,
  kClock, kClock64, kProfTrigger, kAssert, kPrintf,
};

/// One row of the catalog. Rows are aggregates: fields after max_args
/// default to "none".
struct BuiltinInfo {
  const char* name;  // spelling; for a generic family, its prefix
  BuiltinOp op;
  BuiltinClass cls;
  bool in_opencl;
  bool in_cuda;
  int8_t min_args;  // accepted argument counts, checked by sema
  int8_t max_args;  // kVariadic: no upper bound
  /// Spelling in the other dialect. Null when the spelling is legal in
  /// both dialects, or when the translation is structural or impossible.
  const char* counterpart = nullptr;
  /// CUDA built-in with no OpenCL counterpart (§3.7; Table 3 "No
  /// corresponding functions"). CU→CL rejects it.
  bool hw_specific = false;
  /// Single-precision CUDA spelling (sqrtf, __expf): float result whatever
  /// the argument type.
  bool float_result = false;
  /// OpenCL built-in that CUDA code reaches through the wrapper device
  /// library, spelled kWrapperPrefix + name (§5).
  bool wrapped = false;
  uint32_t value = 0;  // kConstant rows: the constant's value
};

inline constexpr int8_t kVariadic = -1;

/// "__oc2cu_<fn>": device functions of the OpenCL→CUDA wrapper library.
/// Any OpenCL builtin spelled with the prefix is legal CUDA and behaves
/// exactly like the OpenCL builtin (§5).
inline constexpr std::string_view kWrapperPrefix = "__oc2cu_";

/// Sampler property bits carried by the CLK_* sampler constants; the
/// interpreter's image descriptors use the same encoding.
enum SamplerBits : uint32_t {
  kSamplerNormalizedCoords = 1u << 0,
  kSamplerFilterLinear = 1u << 1,  // else nearest
  kSamplerAddressClamp = 1u << 2,  // clamp-to-edge (the only mode modeled)
};

/// A spelling resolved to its row, as sema stores it on a DeclRefExpr.
struct BuiltinRef {
  const BuiltinInfo* info = nullptr;  // null: not a builtin
  ScalarKind elem = ScalarKind::kVoid;  // make_/convert_/as_ target kind
  int width = 0;  // vector families; 0 = scalar convert_/as_ target
  bool wrapped = false;  // spelled kWrapperPrefix + the OpenCL name (CUDA)

  explicit operator bool() const { return info != nullptr; }
  BuiltinOp op() const { return info ? info->op : BuiltinOp::kNone; }
};

/// Resolve a called spelling in the given dialect: exact rows, the generic
/// families (make_*, convert_*, as_*, vload*/vstore*) and, in CUDA, the
/// kWrapperPrefix spellings. Empty if `name` is no builtin function there.
BuiltinRef FindBuiltinFunction(std::string_view name, Dialect dialect);

/// Resolve an identifier: CUDA threadIdx/blockIdx/blockDim/gridDim/warpSize,
/// CLK_* constants, and CL_*/cuda* host-API enums.
BuiltinRef FindBuiltinVariable(std::string_view name, Dialect dialect);

/// Every exact row (generic families excluded), in catalog order.
std::span<const BuiltinInfo> BuiltinTable();

/// Sema's arity check: a diagnostic naming the builtin and the accepted
/// count if `nargs` is outside it.
std::optional<std::string> BuiltinArityError(const BuiltinRef& ref,
                                             std::string_view spelling,
                                             size_t nargs);

/// Type of a builtin variable, or the result type of a builtin call given
/// its argument types (never null).
Type::Ptr BuiltinResultType(const BuiltinRef& ref,
                            const std::vector<Type::Ptr>& args);

}  // namespace bridgecl::lang
