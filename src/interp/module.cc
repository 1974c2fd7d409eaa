#include "interp/module.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "interp/value.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "support/strings.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::DeclKind;
using lang::Dialect;
using lang::Expr;
using lang::ExprKind;
using lang::FunctionDecl;
using lang::TextureRefDecl;
using lang::VarDecl;

namespace {

/// Fold a literal initializer expression (int/float literal, possibly
/// negated / parenthesized) to a Value of `target` type.
StatusOr<Value> FoldInit(const Expr& e, const lang::Type::Ptr& target) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Value::Int(static_cast<int64_t>(e.As<lang::IntLitExpr>()->value))
          .ConvertTo(target);
    case ExprKind::kFloatLit:
      return Value::Float(e.As<lang::FloatLitExpr>()->value,
                          lang::ScalarKind::kDouble)
          .ConvertTo(target);
    case ExprKind::kParen:
      return FoldInit(*e.As<lang::ParenExpr>()->inner, target);
    case ExprKind::kDeclRef: {
      // Named device constants (CLK_* sampler/fence flags).
      const lang::BuiltinRef& b = e.As<lang::DeclRefExpr>()->builtin;
      if (b.op() != lang::BuiltinOp::kConstant)
        return UnimplementedError("non-constant initializer reference");
      return Value::UInt(b.info->value).ConvertTo(target);
    }
    case ExprKind::kBinary: {
      const auto* b = e.As<lang::BinaryExpr>();
      BRIDGECL_ASSIGN_OR_RETURN(Value l, FoldInit(*b->lhs, target));
      BRIDGECL_ASSIGN_OR_RETURN(Value r, FoldInit(*b->rhs, target));
      uint64_t out = 0;
      switch (b->op) {
        case lang::BinaryOp::kOr: out = l.AsU64() | r.AsU64(); break;
        case lang::BinaryOp::kAnd: out = l.AsU64() & r.AsU64(); break;
        case lang::BinaryOp::kXor: out = l.AsU64() ^ r.AsU64(); break;
        case lang::BinaryOp::kAdd: out = l.AsU64() + r.AsU64(); break;
        case lang::BinaryOp::kSub: out = l.AsU64() - r.AsU64(); break;
        case lang::BinaryOp::kMul: out = l.AsU64() * r.AsU64(); break;
        case lang::BinaryOp::kShl: out = l.AsU64() << r.AsU64(); break;
        case lang::BinaryOp::kShr: out = l.AsU64() >> r.AsU64(); break;
        default:
          return UnimplementedError("unsupported constant initializer op");
      }
      return Value::UInt(out).ConvertTo(target);
    }
    case ExprKind::kUnary: {
      const auto* u = e.As<lang::UnaryExpr>();
      BRIDGECL_ASSIGN_OR_RETURN(Value v, FoldInit(*u->operand, target));
      if (u->op == lang::UnaryOp::kMinus) {
        if (target && target->is_float())
          return Value::Float(-v.AsF64(), target->scalar_kind());
        return Value::Int(-v.AsI64(),
                          target ? target->scalar_kind()
                                 : lang::ScalarKind::kInt);
      }
      return v;
    }
    default:
      return UnimplementedError(
          "module-scope initializers must be literal constants");
  }
}

/// Encode a variable's initializer into `dst` (zero-filled beforehand).
Status EncodeInit(const VarDecl& v, std::byte* dst, size_t size) {
  std::memset(dst, 0, size);
  if (!v.init) return OkStatus();
  const lang::Type::Ptr& t = v.type;
  if (v.init->kind == ExprKind::kInitList) {
    if (!t->is_array())
      return InvalidArgumentError("initializer list on non-array '" + v.name +
                                  "'");
    const auto* list = v.init->As<lang::InitListExpr>();
    lang::Type::Ptr elem = t->element();
    size_t esz = elem->ByteSize();
    if (list->elems.size() * esz > size)
      return InvalidArgumentError("too many initializers for '" + v.name +
                                  "'");
    for (size_t i = 0; i < list->elems.size(); ++i) {
      BRIDGECL_ASSIGN_OR_RETURN(Value val, FoldInit(*list->elems[i], elem));
      BRIDGECL_RETURN_IF_ERROR(EncodeValue(val, dst + i * esz));
    }
    return OkStatus();
  }
  BRIDGECL_ASSIGN_OR_RETURN(Value val, FoldInit(*v.init, t));
  return EncodeValue(val, dst);
}

// ---------------------------------------------------------------------------
// Content-hashed module cache
// ---------------------------------------------------------------------------
// Compile results keyed by FNV-1a(source, dialect, build options). Entries
// hold the analyzed TU (shared, immutable after sema) for successful
// builds, and the failure Status for unsuccessful ones — plus the exact
// diagnostic list either way, replayed into the caller's engine on a hit
// so clGetProgramBuildInfo output is byte-identical whether or not the
// front end actually ran.

struct CacheEntry {
  std::string full_key;  // composite key, guards against hash collisions
  std::shared_ptr<lang::TranslationUnit> tu;  // null for failed builds
  Status status;
  std::vector<Diagnostic> diags;
};

std::mutex g_cache_mu;
std::unordered_map<uint64_t, CacheEntry>& CacheMap() {
  static auto* map = new std::unordered_map<uint64_t, CacheEntry>();
  return *map;
}
std::atomic<uint64_t> g_cache_hits{0};
std::atomic<uint64_t> g_cache_misses{0};
std::atomic<int> g_cache_override{-1};

std::string CompositeKey(const std::string& source, Dialect dialect,
                         const std::string& build_options) {
  std::string key;
  key.reserve(source.size() + build_options.size() + 16);
  key.append(source);
  key.push_back('\0');
  key.append(lang::DialectName(dialect));
  key.push_back('\0');
  key.append(build_options);
  return key;
}

void ReplayDiags(const std::vector<Diagnostic>& stored,
                 DiagnosticEngine& diags) {
  for (const Diagnostic& d : stored) {
    switch (d.severity) {
      case DiagSeverity::kError: diags.Error(d.loc, d.message); break;
      case DiagSeverity::kWarning: diags.Warning(d.loc, d.message); break;
      case DiagSeverity::kNote: diags.Note(d.loc, d.message); break;
    }
  }
}

}  // namespace

ModuleCacheStats GetModuleCacheStats() {
  return ModuleCacheStats{g_cache_hits.load(std::memory_order_relaxed),
                          g_cache_misses.load(std::memory_order_relaxed)};
}

uint64_t ModuleCacheKey(const std::string& source, Dialect dialect,
                        const std::string& build_options) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : CompositeKey(source, dialect, build_options)) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool ModuleCacheEnabled() {
  int pinned = g_cache_override.load(std::memory_order_relaxed);
  if (pinned >= 0) return pinned != 0;
  static const bool from_env = [] {
    const char* env = std::getenv("BRIDGECL_MODULE_CACHE");
    return env == nullptr || std::string(env) != "0";
  }();
  return from_env;
}

void SetModuleCacheEnabled(int enabled) {
  g_cache_override.store(enabled < 0 ? -1 : (enabled != 0),
                         std::memory_order_relaxed);
}

std::vector<ModuleCacheEntryState> ExportModuleCache() {
  std::vector<ModuleCacheEntryState> out;
  {
    std::lock_guard<std::mutex> lock(g_cache_mu);
    for (const auto& [key, entry] : CacheMap()) {
      ModuleCacheEntryState s;
      s.key = key;
      // The composite key is source '\0' dialect-name '\0' options; split
      // it back into the Compile inputs restore re-runs.
      const std::string& fk = entry.full_key;
      size_t first = fk.find('\0');
      size_t second = fk.find('\0', first + 1);
      if (first == std::string::npos || second == std::string::npos)
        continue;  // never happens for entries Compile inserted
      s.source = fk.substr(0, first);
      s.dialect = fk.compare(first + 1, second - first - 1,
                             lang::DialectName(Dialect::kCUDA)) == 0
                      ? Dialect::kCUDA
                      : Dialect::kOpenCL;
      s.build_options = fk.substr(second + 1);
      s.ok = entry.status.ok();
      s.diags = entry.diags;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ModuleCacheEntryState& a, const ModuleCacheEntryState& b) {
              return a.key < b.key;
            });
  return out;
}

Status ImportModuleCache(const std::vector<ModuleCacheEntryState>& entries) {
  for (const ModuleCacheEntryState& e : entries) {
    DiagnosticEngine diags;
    auto m = Module::Compile(e.source, e.dialect, diags, e.build_options);
    if (m.ok() != e.ok)
      return InvalidArgumentError(StrFormat(
          "module cache entry %llx replayed with a different build outcome"
          " (image: %s, now: %s)",
          static_cast<unsigned long long>(e.key), e.ok ? "ok" : "failed",
          m.ok() ? "ok" : "failed"));
    const std::vector<Diagnostic>& now = diags.diagnostics();
    bool same = now.size() == e.diags.size();
    for (size_t i = 0; same && i < now.size(); ++i)
      same = now[i].severity == e.diags[i].severity &&
             now[i].loc.line == e.diags[i].loc.line &&
             now[i].loc.column == e.diags[i].loc.column &&
             now[i].message == e.diags[i].message;
    if (!same)
      return InvalidArgumentError(StrFormat(
          "module cache entry %llx replayed with different diagnostics than"
          " the image recorded",
          static_cast<unsigned long long>(e.key)));
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<Module>> Module::Compile(
    const std::string& source, Dialect dialect, DiagnosticEngine& diags,
    const std::string& build_options, ModuleCacheOutcome* outcome) {
  const bool cached = ModuleCacheEnabled();
  if (outcome != nullptr)
    *outcome = cached ? ModuleCacheOutcome::kMiss : ModuleCacheOutcome::kDisabled;
  const std::string full_key =
      cached ? CompositeKey(source, dialect, build_options) : std::string();
  const uint64_t key =
      cached ? ModuleCacheKey(source, dialect, build_options) : 0;

  if (cached) {
    std::lock_guard<std::mutex> lock(g_cache_mu);
    auto it = CacheMap().find(key);
    if (it != CacheMap().end() && it->second.full_key == full_key) {
      g_cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = ModuleCacheOutcome::kHit;
      ReplayDiags(it->second.diags, diags);
      if (!it->second.status.ok()) return it->second.status;
      auto m = std::unique_ptr<Module>(new Module());
      m->tu_ = it->second.tu;
      m->dialect_ = dialect;
      m->source_ = source;
      return m;
    }
  }

  // Front end. Capture only the diagnostics this compile adds, so replay
  // reproduces them exactly regardless of what the engine already holds.
  const size_t diags_before = diags.diagnostics().size();
  Status st = OkStatus();
  std::shared_ptr<lang::TranslationUnit> tu;
  lang::ParseOptions popts;
  popts.dialect = dialect;
  auto parsed = lang::ParseTranslationUnit(source, popts, diags);
  if (!parsed.ok()) {
    st = parsed.status();
  } else {
    tu = std::shared_ptr<lang::TranslationUnit>(std::move(*parsed));
    lang::SemaOptions sopts;
    sopts.dialect = dialect;
    st = lang::Analyze(*tu, sopts, diags);
    if (!st.ok()) tu = nullptr;
  }

  if (cached) {
    CacheEntry entry;
    entry.full_key = full_key;
    entry.tu = tu;
    entry.status = st;
    entry.diags.assign(diags.diagnostics().begin() + diags_before,
                       diags.diagnostics().end());
    std::lock_guard<std::mutex> lock(g_cache_mu);
    g_cache_misses.fetch_add(1, std::memory_order_relaxed);
    auto it = CacheMap().find(key);
    // Keep the first entry on a (vanishingly unlikely) FNV collision:
    // colliding sources simply recompile every time.
    if (it == CacheMap().end()) CacheMap().emplace(key, std::move(entry));
  }

  if (!st.ok()) return st;
  auto m = std::unique_ptr<Module>(new Module());
  m->tu_ = std::move(tu);
  m->dialect_ = dialect;
  m->source_ = source;
  return m;
}

Status Module::LoadOn(simgpu::Device& device) {
  if (loaded_device_ == &device) return OkStatus();
  loaded_device_ = &device;
  symbols_.clear();
  var_vas_.clear();

  // Pass 1: constant-region layout.
  size_t const_offset = 0;
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    if (v->quals.space != AddressSpace::kConstant) continue;
    size_t align = v->type->Alignment();
    const_offset = (const_offset + align - 1) / align * align;
    size_t size = v->type->ByteSize();
    if (const_offset + size > device.profile().constant_mem_size)
      return ResourceExhaustedError(
          StrFormat("constant memory exhausted laying out '%s' (%zu + %zu > "
                    "%zu)",
                    v->name.c_str(), const_offset, size,
                    device.profile().constant_mem_size));
    uint64_t va = device.vm().constant_base() + const_offset;
    symbols_[v->name] = Symbol{va, size, AddressSpace::kConstant};
    var_vas_[v] = va;
    const_offset += size;
  }
  device.vm().MapConstant(device.profile().constant_mem_size);

  // Pass 2: CUDA __device__ statics go to global memory.
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    if (v->quals.space != AddressSpace::kGlobal) continue;
    size_t size = v->type->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, device.vm().AllocGlobal(size));
    symbols_[v->name] = Symbol{va, size, AddressSpace::kGlobal};
    var_vas_[v] = va;
  }

  // Pass 3: encode initializers.
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    auto it = var_vas_.find(v);
    if (it == var_vas_.end()) continue;
    size_t size = v->type->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                              device.vm().Resolve(it->second, size));
    BRIDGECL_RETURN_IF_ERROR(EncodeInit(*v, p, size));
  }
  return OkStatus();
}

Status Module::RestoreLayout(simgpu::Device& device,
                             const std::vector<SymbolBinding>& symbols) {
  loaded_device_ = &device;
  symbols_.clear();
  var_vas_.clear();
  for (const SymbolBinding& b : symbols) {
    symbols_[b.name] = b.symbol;
    // Re-link the evaluator's VarDecl → VA map by name; a symbol with no
    // matching declaration means the image does not belong to this source.
    bool bound = false;
    for (auto& d : tu_->decls) {
      if (d->kind != DeclKind::kVar || d->name != b.name) continue;
      var_vas_[d->As<VarDecl>()] = b.symbol.va;
      bound = true;
      break;
    }
    if (!bound)
      return InvalidArgumentError(
          "snapshot image binds symbol '" + b.name +
          "' that this module's source does not declare");
  }
  return OkStatus();
}

const FunctionDecl* Module::FindKernel(const std::string& name) const {
  const FunctionDecl* f = tu_->FindFunction(name);
  if (f != nullptr && f->quals.is_kernel && f->body) return f;
  return nullptr;
}

StatusOr<Module::Symbol> Module::FindSymbol(const std::string& name) const {
  auto it = symbols_.find(name);
  if (it == symbols_.end())
    return NotFoundError("no device symbol named '" + name + "'");
  return it->second;
}

uint64_t Module::VaOf(const VarDecl* v) const {
  auto it = var_vas_.find(v);
  return it == var_vas_.end() ? 0 : it->second;
}

Status Module::BindTexture(const std::string& name, uint64_t image_desc_va) {
  if (FindTextureRef(name) == nullptr)
    return NotFoundError("no texture reference named '" + name + "'");
  texture_bindings_[name] = image_desc_va;
  return OkStatus();
}

StatusOr<uint64_t> Module::TextureBinding(const std::string& name) const {
  auto it = texture_bindings_.find(name);
  if (it == texture_bindings_.end())
    return FailedPreconditionError("texture reference '" + name +
                                   "' used but not bound");
  return it->second;
}

const TextureRefDecl* Module::FindTextureRef(const std::string& name) const {
  for (auto& d : tu_->decls)
    if (d->kind == DeclKind::kTextureRef && d->name == name)
      return d->As<TextureRefDecl>();
  return nullptr;
}

void Module::SetRegisterOverride(const std::string& kernel, int regs) {
  register_overrides_[kernel] = regs;
}

int Module::RegistersFor(const FunctionDecl* kernel) const {
  auto it = register_overrides_.find(kernel->name);
  if (it != register_overrides_.end()) return it->second;
  int table = KernelRegisterTable::Instance().For(kernel->name, dialect_);
  if (table > 0) return table;
  return kernel->register_estimate;
}

KernelRegisterTable& KernelRegisterTable::Instance() {
  static KernelRegisterTable* table = new KernelRegisterTable();
  return *table;
}

void KernelRegisterTable::Set(const std::string& kernel, int opencl_regs,
                              int cuda_regs) {
  entries_[kernel] = Entry{opencl_regs, cuda_regs};
}

void KernelRegisterTable::Clear() { entries_.clear(); }

int KernelRegisterTable::For(const std::string& kernel,
                             Dialect dialect) const {
  auto it = entries_.find(kernel);
  if (it == entries_.end()) return 0;
  return dialect == Dialect::kOpenCL ? it->second.opencl_regs
                                     : it->second.cuda_regs;
}

}  // namespace bridgecl::interp
