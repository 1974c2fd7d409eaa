#include "interp/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>

#include "interp/image.h"
#include "interp/value.h"
#include "interp/worker_pool.h"
#include "lang/builtins.h"
#include "lang/sema.h"
#include "simgpu/fiber.h"
#include "support/strings.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::ArithmeticResultType;
using lang::AssignExpr;
using lang::BinaryExpr;
using lang::BinaryOp;
using lang::BuiltinRef;
using Op = lang::BuiltinOp;
using lang::CallExpr;
using lang::CastExpr;
using lang::CompoundStmt;
using lang::ConditionalExpr;
using lang::DeclRefExpr;
using lang::DeclStmt;
using lang::Dialect;
using lang::Expr;
using lang::ExprKind;
using lang::ExprStmt;
using lang::FloatLitExpr;
using lang::ForStmt;
using lang::FunctionDecl;
using lang::IfStmt;
using lang::IndexExpr;
using lang::InitListExpr;
using lang::IntLitExpr;
using lang::IsFloatScalar;
using lang::IsSignedScalar;
using lang::MemberExpr;
using lang::ParenExpr;
using lang::ReturnStmt;
using lang::ScalarKind;
using lang::SizeofExpr;
using lang::Stmt;
using lang::StmtKind;
using lang::Type;
using lang::UnaryExpr;
using lang::UnaryOp;
using lang::VarDecl;
using lang::VectorLitExpr;
using lang::WhileStmt;
using simgpu::Dim3;
using simgpu::Segment;

namespace {

constexpr size_t kPrivateBytesPerItem = 64 * 1024;
constexpr size_t kFiberStackBytes = 256 * 1024;
constexpr int kMaxCallDepth = 64;
// A device call also needs the work-item's fiber to have host stack for
// one more call level as large as the caller's, plus this much for leaf
// work, so deep recursion fails with a status in every build (sanitizer
// frames are ten times larger) instead of overrunning the stack.
constexpr size_t kCallStackCushion = 8 * 1024;

/// Location of an assignable value.
struct LV {
  enum class Kind { kMem, kReg };
  Kind kind = Kind::kReg;
  uint64_t va = 0;      // kMem
  Value* reg = nullptr; // kReg
  Type::Ptr type;       // type stored at the location (pre-swizzle)
  std::vector<int> swizzle;  // component selection on a vector location
};

LV MemLv(uint64_t va, Type::Ptr type) {
  LV lv;
  lv.kind = LV::Kind::kMem;
  lv.va = va;
  lv.type = std::move(type);
  return lv;
}

enum class FlowKind { kNormal, kReturn, kBreak, kContinue };

/// State shared by all work-items of one launch. The block-parallel
/// engine copies this once per worker (rebasing the dynamic shared VAs to
/// the worker's VM slot) and then points `stats` at a fresh per-block
/// accumulator before each block, so workers never touch the device's
/// shared counters during execution.
struct LaunchState {
  simgpu::Device* device = nullptr;
  Module* module = nullptr;
  const FunctionDecl* kernel = nullptr;
  LaunchConfig cfg;
  Dialect dialect = Dialect::kOpenCL;

  uint64_t dynamic_shared_va = 0;  // CUDA extern __shared__ area
  size_t shared_total = 0;
  std::vector<Value> arg_values;   // decoded per param (dyn-local → pointer)
  std::vector<size_t> local_arg_indices;  // args holding dyn-local pointers

  simgpu::FiberGroup* group = nullptr;
  Dim3 group_id;
  int slot = 0;  // VM worker slot owning this state's shared/private VAs
  simgpu::DeviceStats* stats = nullptr;  // per-block accumulation sink
};

class Evaluator {
 public:
  Evaluator(LaunchState& L, Dim3 lid, int linear_index)
      : L_(L), lid_(lid) {
    const Dim3& blk = L.cfg.block;
    gid_ = Dim3(L.group_id.x * blk.x + lid.x, L.group_id.y * blk.y + lid.y,
                L.group_id.z * blk.z + lid.z);
    private_base_ = L.device->vm().private_base(L.slot) +
                    static_cast<uint64_t>(linear_index) * kPrivateBytesPerItem;
    private_top_ = private_base_;
  }

  double cycles() const { return cycles_; }

  Status Run() {
    frames_.push_back({L_.kernel, std::vector<Slot>(L_.kernel->frame_slots),
                       L_.group->StackLeft()});
    for (size_t i = 0; i < L_.kernel->params.size(); ++i)
      BRIDGECL_RETURN_IF_ERROR(
          BindVar(L_.kernel->params[i].get(), L_.arg_values[i]));
    auto flow = Exec(*L_.kernel->body);
    if (!flow.ok()) return flow.status();
    frames_.pop_back();
    return OkStatus();
  }

 private:
  /// One variable of a frame, indexed by the slot sema gave it. A
  /// register variable holds its Value; a memory-backed (private or
  /// shared) variable and a reference parameter hold their location.
  struct Slot {
    enum class Kind : uint8_t { kUnbound, kReg, kMem, kRef };
    Kind kind = Kind::kUnbound;
    Value reg;  // kReg
    LV lv;      // kMem, kRef
  };
  /// Sized once per call, so a callee may hold an LV into a caller's slot.
  struct Frame {
    const FunctionDecl* fn;
    std::vector<Slot> slots;
    size_t stack_left;  // host stack free when the call was made
  };

  Frame& frame() { return frames_.back(); }

  /// Where a variable lives: its slot in the current frame or, for a
  /// module-scope variable (no slot), a scratch entry at its address.
  /// Sema scopes names per function, so no caller frame is searched.
  StatusOr<Slot*> Locate(const DeclRefExpr& r) {
    const VarDecl* var = r.var;
    std::vector<Slot>& slots = frame().slots;
    if (var->slot < 0) {
      if (uint64_t va = L_.module->VaOf(var)) {
        module_var_.kind = Slot::Kind::kMem;
        module_var_.lv = MemLv(va, var->type);
        return &module_var_;
      }
    } else if (static_cast<size_t>(var->slot) < slots.size() &&
               slots[var->slot].kind != Slot::Kind::kUnbound) {
      return &slots[var->slot];
    }
    return Err("unbound variable '" + r.name + "'");
  }

  /// Aggregates and address-taken variables live in addressable memory.
  static bool NeedsMem(const VarDecl* var, const Type::Ptr& t) {
    return var->address_taken || (t && (t->is_struct() || t->is_array()));
  }

  void BindMem(const VarDecl* var, uint64_t va) {
    Slot& s = frame().slots[var->slot];
    s.kind = Slot::Kind::kMem;
    s.lv = MemLv(va, var->type);
  }

  void BindReg(const VarDecl* var, Value v) {
    Slot& s = frame().slots[var->slot];
    s.kind = Slot::Kind::kReg;
    s.reg = std::move(v);
  }

  /// Private storage for memory-backed `var` of type `t`, allocated the
  /// first time its declaration runs in this frame and reused when a loop
  /// runs it again, so loop-body locals do not grow the stack.
  StatusOr<uint64_t> PrivateMem(const VarDecl* var, const Type::Ptr& t) {
    const Slot& s = frame().slots[var->slot];
    if (s.kind == Slot::Kind::kMem) return s.lv.va;
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t va,
                              StackAlloc(t->ByteSize(), t->Alignment()));
    BindMem(var, va);
    return va;
  }

  Status Err(std::string msg) { return InternalError(std::move(msg)); }

  // -- cost accounting -----------------------------------------------------
  void ChargeOp(double c) {
    cycles_ += c;
    ++L_.stats->ops_executed;
  }

  Status ChargeAccess(uint64_t va, size_t bytes) {
    BRIDGECL_ASSIGN_OR_RETURN(Segment seg, L_.device->vm().SegmentOf(va));
    const auto& prof = L_.device->profile();
    auto& st = *L_.stats;
    switch (seg) {
      case Segment::kGlobal:
        ++st.global_accesses;
        cycles_ += prof.cost_global_access *
                   std::max<size_t>(1, (bytes + 15) / 16);
        break;
      case Segment::kShared: {
        int words = L_.device->SharedAccessBankWords(va, bytes);
        ++st.shared_accesses;
        st.shared_bank_words += words;
        cycles_ += prof.cost_shared_access * words;
        break;
      }
      case Segment::kConstant:
        ++st.constant_accesses;
        cycles_ += prof.cost_constant_access;
        break;
      case Segment::kPrivate:
        cycles_ += prof.cost_alu * 0.5;
        break;
    }
    return OkStatus();
  }

  // -- memory --------------------------------------------------------------

  /// Re-state a device fault with the coordinates of the work-item that
  /// performed the access, so guarded-memory and injected-fault
  /// diagnostics name the culprit. Device-lost passes through untouched
  /// (the loss is asynchronous, not attributable to one work-item).
  Status FaultAt(const Status& st) {
    if (st.ok() || st.code() == StatusCode::kDeviceLost) return st;
    Status out(st.code(),
               st.message() +
                   StrFormat(" [work-item global (%u,%u,%u), local (%u,%u,%u),"
                             " block %s]",
                             gid_.x, gid_.y, gid_.z, lid_.x, lid_.y, lid_.z,
                             L_.group_id.ToString().c_str()));
    out.set_api_code(st.api_code());
    return out;
  }

  StatusOr<Value> LoadMem(uint64_t va, const Type::Ptr& type) {
    size_t n = type->ByteSize();
    auto p = L_.device->vm().Resolve(va, n);
    if (!p.ok()) return FaultAt(p.status());
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    return DecodeValue(type, *p);
  }

  Status StoreMem(uint64_t va, const Value& v) {
    size_t n = v.type()->ByteSize();
    auto p = L_.device->vm().Resolve(va, n);
    if (!p.ok()) return FaultAt(p.status());
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    return EncodeValue(v, *p);
  }

  StatusOr<uint64_t> StackAlloc(size_t bytes, size_t align) {
    uint64_t top = (private_top_ + align - 1) / align * align;
    if (top + bytes > private_base_ + kPrivateBytesPerItem)
      return ResourceExhaustedError("work-item private memory exhausted");
    private_top_ = top + bytes;
    return top;
  }

  /// Bind a value to a variable, spilling aggregates / address-taken
  /// variables to private memory.
  Status BindVar(const VarDecl* var, const Value& v) {
    Type::Ptr t = var->type;
    if (t && t->is_named() && v.type()) t = v.type();  // template params
    if (NeedsMem(var, t)) {
      size_t size = t->ByteSize();
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, PrivateMem(var, t));
      Value stored = v;
      if (!lang::SameType(v.type(), t) && !v.is_aggregate())
        stored = v.ConvertTo(t);
      stored.set_type(t);
      if (stored.is_aggregate() && stored.bytes().size() < size)
        stored.bytes().resize(size);
      return StoreMem(va, stored);
    }
    Value stored = v;
    if (t && !lang::SameType(v.type(), t)) stored = v.ConvertTo(t);
    BindReg(var, std::move(stored));
    return OkStatus();
  }

  // -- statements ------------------------------------------------------------
  StatusOr<FlowKind> Exec(const Stmt& s) {
    // Deterministic instruction trap: one interpreted statement is one
    // "instruction" for FaultSite::kInstruction plans.
    if (simgpu::FaultInjector& inj = L_.device->faults(); inj.armed())
      BRIDGECL_RETURN_IF_ERROR(FaultAt(inj.OnInstruction()));
    switch (s.kind) {
      case StmtKind::kCompound: {
        for (const auto& st : s.As<CompoundStmt>()->body) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind f, Exec(*st));
          if (f != FlowKind::kNormal) return f;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kDecl: {
        for (const auto& v : s.As<DeclStmt>()->vars)
          BRIDGECL_RETURN_IF_ERROR(ExecVarDecl(v.get()));
        return FlowKind::kNormal;
      }
      case StmtKind::kExpr: {
        BRIDGECL_RETURN_IF_ERROR(Eval(*s.As<ExprStmt>()->expr).status());
        return FlowKind::kNormal;
      }
      case StmtKind::kIf: {
        const auto* i = s.As<IfStmt>();
        BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*i->cond));
        ChargeOp(L_.device->profile().cost_alu);
        if (c.AsBool()) return Exec(*i->then_stmt);
        if (i->else_stmt) return Exec(*i->else_stmt);
        return FlowKind::kNormal;
      }
      case StmtKind::kFor: {
        const auto* f = s.As<ForStmt>();
        if (f->init) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fi, Exec(*f->init));
          (void)fi;
        }
        while (true) {
          if (f->cond) {
            BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*f->cond));
            ChargeOp(L_.device->profile().cost_alu);
            if (!c.AsBool()) break;
          }
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*f->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
          if (f->step) BRIDGECL_RETURN_IF_ERROR(Eval(*f->step).status());
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kWhile: {
        const auto* w = s.As<WhileStmt>();
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*w->cond));
          ChargeOp(L_.device->profile().cost_alu);
          if (!c.AsBool()) break;
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*w->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kDo: {
        const auto* d = s.As<lang::DoStmt>();
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*d->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
          BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*d->cond));
          ChargeOp(L_.device->profile().cost_alu);
          if (!c.AsBool()) break;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kReturn: {
        const auto* r = s.As<ReturnStmt>();
        if (r->value) {
          BRIDGECL_ASSIGN_OR_RETURN(ret_, Eval(*r->value));
        } else {
          ret_ = Value::Void();
        }
        return FlowKind::kReturn;
      }
      case StmtKind::kBreak:
        return FlowKind::kBreak;
      case StmtKind::kContinue:
        return FlowKind::kContinue;
      case StmtKind::kEmpty:
        return FlowKind::kNormal;
    }
    return FlowKind::kNormal;
  }

  Status ExecVarDecl(const VarDecl* var) {
    // Static __local/__shared__ variables: bound to the block's shared
    // region at the offset sema laid out for the launched kernel;
    // initialization is not allowed in either model, and the extern
    // dynamic variable maps to the dynamic area start.
    if (var->quals.space == AddressSpace::kLocal) {
      if (var->quals.is_extern) {
        BindMem(var, L_.dynamic_shared_va);
      } else if (var->shared_offset >= 0 && frame().fn == L_.kernel) {
        BindMem(var, L_.device->vm().shared_base(L_.slot) +
                         static_cast<uint64_t>(var->shared_offset));
      } else {
        return Err("unlaid-out shared variable '" + var->name + "'");
      }
      return OkStatus();
    }
    Type::Ptr t = var->type;
    if (NeedsMem(var, t)) {
      size_t size = t->ByteSize();
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, PrivateMem(var, t));
      BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                                L_.device->vm().Resolve(va, size));
      std::memset(p, 0, size);
      if (var->init) {
        if (var->init->kind == ExprKind::kInitList) {
          const auto* list = var->init->As<InitListExpr>();
          if (!t->is_array())
            return Err("initializer list on non-array local");
          Type::Ptr elem = t->element();
          size_t esz = elem->ByteSize();
          for (size_t i = 0; i < list->elems.size(); ++i) {
            BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*list->elems[i]));
            BRIDGECL_RETURN_IF_ERROR(StoreMem(va + i * esz,
                                              ev.ConvertTo(elem)));
          }
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*var->init));
          BRIDGECL_RETURN_IF_ERROR(StoreMem(va, ev.ConvertTo(t)));
        }
      }
      return OkStatus();
    }
    Value init;
    if (var->init) {
      BRIDGECL_ASSIGN_OR_RETURN(init, Eval(*var->init));
      // A template-typed local adopts the runtime type.
      if (!t || !t->is_named() || !init.type()) init = init.ConvertTo(t);
    } else {
      // Zero-initialized register (deterministic simulation).
      if (t && t->is_vector()) {
        init = Value::Vector(t, std::vector<ScalarVal>(t->vector_width()));
      } else {
        init = Value::Int(0).ConvertTo(t ? t : Type::IntTy());
      }
    }
    BindReg(var, std::move(init));
    return OkStatus();
  }

  // -- lvalues ---------------------------------------------------------------
  StatusOr<LV> Lval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kDeclRef: {
        const auto* r = e.As<DeclRefExpr>();
        const VarDecl* var = r->var;
        if (var == nullptr)
          return Err("assignment to non-variable '" + r->name + "'");
        BRIDGECL_ASSIGN_OR_RETURN(Slot * s, Locate(*r));
        if (s->kind != Slot::Kind::kReg) return s->lv;
        LV lv;
        lv.reg = &s->reg;
        lv.type = s->reg.type() ? s->reg.type() : var->type;
        return lv;
      }
      case ExprKind::kParen:
        return Lval(*e.As<ParenExpr>()->inner);
      case ExprKind::kUnary: {
        const auto* u = e.As<UnaryExpr>();
        if (u->op != UnaryOp::kDeref)
          return Err("expression is not assignable");
        BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*u->operand));
        return MemLv(p.AsVa(), e.type ? e.type
                               : (p.type() && p.type()->is_pointer()
                                      ? p.type()->pointee()
                                      : Type::IntTy()));
      }
      case ExprKind::kIndex: {
        const auto* ix = e.As<IndexExpr>();
        Type::Ptr bt = ix->base->type;
        // Vector component via dynamic index: v[i].
        if (bt && bt->is_vector()) {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*ix->base));
          BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
          base.swizzle = {static_cast<int>(idx.AsI64())};
          return base;
        }
        BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
        Type::Ptr elem = e.type;
        if (!elem) return Err("untyped subscript");
        ChargeOp(L_.device->profile().cost_alu);
        uint64_t base_va;
        if (bt && bt->is_array()) {
          // Multi-dimensional arrays: the base is itself an aggregate
          // location (tile[ty][tx]); index into its address directly.
          BRIDGECL_ASSIGN_OR_RETURN(LV base_lv, Lval(*ix->base));
          if (base_lv.kind != LV::Kind::kMem)
            return Err("subscript on non-addressable array");
          base_va = base_lv.va;
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*ix->base));
          base_va = base.AsVa();
        }
        return MemLv(base_va + idx.AsI64() * elem->ByteSize(), elem);
      }
      case ExprKind::kMember: {
        const auto* m = e.As<MemberExpr>();
        if (m->is_swizzle) {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*m->base));
          if (!base.swizzle.empty())
            return Err("nested swizzle assignment is not supported");
          base.swizzle = m->swizzle;
          return base;
        }
        // Struct member.
        Type::Ptr agg_t;
        uint64_t base_va = 0;
        if (m->is_arrow) {
          BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*m->base));
          agg_t = p.type() && p.type()->is_pointer() ? p.type()->pointee()
                                                     : nullptr;
          base_va = p.AsVa();
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*m->base));
          if (base.kind != LV::Kind::kMem)
            return Err("struct member write requires memory-backed struct");
          agg_t = base.type;
          base_va = base.va;
        }
        if (!agg_t || !agg_t->is_struct())
          return Err("member access on non-struct");
        const lang::StructField* f = agg_t->struct_decl()->FindField(m->member);
        if (f == nullptr) return Err("no field '" + m->member + "'");
        return MemLv(base_va + f->offset, f->type);
      }
      default:
        return Err("expression is not assignable");
    }
  }

  StatusOr<Value> Read(const LV& lv) {
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_ASSIGN_OR_RETURN(whole, LoadMem(lv.va, lv.type));
    } else {
      whole = *lv.reg;
    }
    if (lv.swizzle.empty()) return whole;
    if (!whole.is_vector()) return Err("swizzle read of non-vector");
    if (lv.swizzle.size() == 1) return whole.Component(lv.swizzle[0]);
    std::vector<ScalarVal> comps;
    comps.reserve(lv.swizzle.size());
    for (int i : lv.swizzle) comps.push_back(whole.comps()[i]);
    return Value::Vector(Type::Vector(whole.type()->scalar_kind(),
                                      static_cast<int>(lv.swizzle.size())),
                         std::move(comps));
  }

  Status Write(const LV& lv, const Value& v) {
    if (lv.swizzle.empty()) {
      Value stored = v;
      if (lv.type && !lang::SameType(v.type(), lv.type))
        stored = v.ConvertTo(lv.type);
      if (lv.kind == LV::Kind::kMem) return StoreMem(lv.va, stored);
      *lv.reg = std::move(stored);
      return OkStatus();
    }
    // Swizzled store: read-modify-write the base vector.
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_ASSIGN_OR_RETURN(whole, LoadMem(lv.va, lv.type));
    } else {
      whole = *lv.reg;
    }
    if (!whole.is_vector()) return Err("swizzle write of non-vector");
    ScalarKind ek = whole.type()->scalar_kind();
    if (lv.swizzle.size() == 1) {
      Value c = v.ConvertTo(Type::Scalar(ek));
      whole.comps()[lv.swizzle[0]] = c.scalar();
    } else {
      Value src = v.ConvertTo(
          Type::Vector(ek, static_cast<int>(lv.swizzle.size())));
      for (size_t i = 0; i < lv.swizzle.size(); ++i)
        whole.comps()[lv.swizzle[i]] = src.comps()[i];
    }
    if (lv.kind == LV::Kind::kMem) return StoreMem(lv.va, whole);
    *lv.reg = std::move(whole);
    return OkStatus();
  }

  // -- expression evaluation ---------------------------------------------------
  StatusOr<Value> Eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const auto* i = e.As<IntLitExpr>();
        if (e.type) return Value::UInt(i->value).ConvertTo(e.type);
        return Value::Int(static_cast<int64_t>(i->value));
      }
      case ExprKind::kFloatLit: {
        const auto* f = e.As<FloatLitExpr>();
        return Value::Float(f->value, f->is_float ? ScalarKind::kFloat
                                                  : ScalarKind::kDouble);
      }
      case ExprKind::kDeclRef:
        return EvalDeclRef(*e.As<DeclRefExpr>());
      case ExprKind::kStringLit:
        // Format strings are only consumed by printf/assert, which the
        // simulator does not interpret; an opaque handle suffices.
        return Value::Pointer(0, e.type ? e.type : Type::IntTy());
      case ExprKind::kParen:
        return Eval(*e.As<ParenExpr>()->inner);
      case ExprKind::kUnary:
        return EvalUnary(*e.As<UnaryExpr>());
      case ExprKind::kBinary:
        return EvalBinary(*e.As<BinaryExpr>());
      case ExprKind::kAssign:
        return EvalAssign(*e.As<AssignExpr>());
      case ExprKind::kConditional: {
        const auto* c = e.As<ConditionalExpr>();
        BRIDGECL_ASSIGN_OR_RETURN(Value cond, Eval(*c->cond));
        ChargeOp(L_.device->profile().cost_alu);
        return cond.AsBool() ? Eval(*c->then_expr) : Eval(*c->else_expr);
      }
      case ExprKind::kCall:
        return EvalCall(*e.As<CallExpr>());
      case ExprKind::kIndex: {
        const auto* ix = e.As<IndexExpr>();
        Type::Ptr bt = ix->base->type;
        if (bt && bt->is_vector()) {
          BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*ix->base));
          BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
          int i = static_cast<int>(idx.AsI64());
          if (i < 0 || i >= static_cast<int>(base.comps().size()))
            return Err("vector component index out of range");
          return base.Component(i);
        }
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(e));
        return Read(lv);
      }
      case ExprKind::kMember:
        return EvalMember(*e.As<MemberExpr>());
      case ExprKind::kCast: {
        const auto* c = e.As<CastExpr>();
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c->operand));
        ChargeOp(L_.device->profile().cost_alu * 0.5);
        if (c->style == lang::CastStyle::kReinterpret && c->target &&
            !c->target->is_pointer() && v.type() &&
            v.type()->ByteSize() == c->target->ByteSize()) {
          return v.BitcastTo(c->target);
        }
        return v.ConvertTo(c->target);
      }
      case ExprKind::kInitList:
        return Err("brace initializer outside a declaration");
      case ExprKind::kSizeof: {
        const auto* s = e.As<SizeofExpr>();
        size_t n = s->arg_type ? s->arg_type->ByteSize()
                               : (s->arg_expr->type
                                      ? s->arg_expr->type->ByteSize()
                                      : 0);
        return Value::UInt(n, ScalarKind::kSizeT);
      }
      case ExprKind::kVectorLit: {
        const auto* v = e.As<VectorLitExpr>();
        int w = v->vec_type->vector_width();
        ScalarKind ek = v->vec_type->scalar_kind();
        std::vector<ScalarVal> comps(w);
        if (v->elems.size() == 1) {
          BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*v->elems[0]));
          ScalarVal c = ev.ConvertTo(Type::Scalar(ek)).scalar();
          for (int i = 0; i < w; ++i) comps[i] = c;
        } else {
          int at = 0;
          for (const auto& el : v->elems) {
            BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*el));
            if (ev.is_vector()) {
              for (int i = 0; i < ev.type()->vector_width() && at < w; ++i)
                comps[at++] =
                    ev.Component(i).ConvertTo(Type::Scalar(ek)).scalar();
            } else if (at < w) {
              comps[at++] = ev.ConvertTo(Type::Scalar(ek)).scalar();
            }
          }
          if (at != w)
            return Err("wrong number of vector literal components");
        }
        ChargeOp(L_.device->profile().cost_alu);
        return Value::Vector(v->vec_type, std::move(comps));
      }
    }
    return Err("unhandled expression kind");
  }

  StatusOr<Value> EvalDeclRef(const DeclRefExpr& r) {
    if (r.var != nullptr) {
      BRIDGECL_ASSIGN_OR_RETURN(Slot * s, Locate(r));
      if (s->kind == Slot::Kind::kReg) return s->reg;
      if (s->kind == Slot::Kind::kRef) return Read(s->lv);
      // Arrays decay to a pointer to their first element.
      const Type::Ptr& t = r.var->type;
      if (t && t->is_array())
        return Value::Pointer(s->lv.va,
                              Type::Pointer(t->element(), r.var->quals.space));
      return LoadMem(s->lv.va, t);
    }
    // CUDA built-in index variables and named constants.
    if (r.builtin) {
      auto vec3 = [&](const Dim3& d) {
        std::vector<ScalarVal> c(3);
        c[0].u = d.x;
        c[1].u = d.y;
        c[2].u = d.z;
        return Value::Vector(Type::Vector(ScalarKind::kUInt, 3),
                             std::move(c));
      };
      switch (r.builtin.op()) {
        case Op::kThreadIdx: return vec3(lid_);
        case Op::kBlockIdx: return vec3(L_.group_id);
        case Op::kBlockDim: return vec3(L_.cfg.block);
        case Op::kGridDim: return vec3(L_.cfg.grid);
        case Op::kWarpSize:
          return Value::Int(L_.device->profile().warp_size);
        case Op::kConstant:
          return Value::UInt(r.builtin.info->value);
        default:
          return Err("unknown builtin constant '" + r.name + "'");
      }
    }
    // Texture reference.
    if (L_.module->FindTextureRef(r.name) != nullptr) {
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t desc_va,
                                L_.module->TextureBinding(r.name));
      return Value::Pointer(desc_va, r.type ? r.type : Type::IntTy());
    }
    return Err("unresolved identifier '" + r.name + "'");
  }

  StatusOr<Value> EvalMember(const MemberExpr& m) {
    if (m.is_swizzle) {
      BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*m.base));
      if (!base.is_vector()) return Err("swizzle on non-vector");
      if (m.swizzle.size() == 1) return base.Component(m.swizzle[0]);
      std::vector<ScalarVal> comps;
      for (int i : m.swizzle) {
        if (i >= static_cast<int>(base.comps().size()))
          return Err("swizzle component out of range");
        comps.push_back(base.comps()[i]);
      }
      // Width must be captured before std::move(comps): C++ does not
      // specify argument evaluation order.
      int width = static_cast<int>(comps.size());
      return Value::Vector(Type::Vector(base.type()->scalar_kind(), width),
                           std::move(comps));
    }
    // Struct member.
    Type::Ptr bt = m.base->type;
    if (m.is_arrow || (bt && bt->is_struct())) {
      // Try the lvalue path (memory-backed) first.
      auto lv = Lval(m);
      if (lv.ok()) return Read(*lv);
      // Rvalue aggregate: extract from the byte image.
      BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*m.base));
      if (!base.is_aggregate()) return lv.status();
      const lang::StructDecl* sd = base.type()->struct_decl();
      const lang::StructField* f = sd->FindField(m.member);
      if (f == nullptr) return Err("no field '" + m.member + "'");
      return DecodeValue(f->type, base.bytes().data() + f->offset);
    }
    return Err("member access on unsupported base");
  }

  StatusOr<Value> EvalUnary(const UnaryExpr& u) {
    const auto& prof = L_.device->profile();
    switch (u.op) {
      case UnaryOp::kAddrOf: {
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*u.operand));
        if (lv.kind != LV::Kind::kMem)
          return Err("address of non-addressable value");
        Type::Ptr pt =
            u.operand->type
                ? Type::Pointer(u.operand->type, AddressSpace::kPrivate)
                : Type::Pointer(Type::IntTy(), AddressSpace::kPrivate);
        return Value::Pointer(lv.va, pt);
      }
      case UnaryOp::kDeref: {
        BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*u.operand));
        Type::Ptr t = p.type() && p.type()->is_pointer()
                          ? p.type()->pointee()
                          : Type::IntTy();
        return LoadMem(p.AsVa(), t);
      }
      case UnaryOp::kPreInc:
      case UnaryOp::kPreDec:
      case UnaryOp::kPostInc:
      case UnaryOp::kPostDec: {
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*u.operand));
        BRIDGECL_ASSIGN_OR_RETURN(Value old, Read(lv));
        ChargeOp(prof.cost_alu);
        int64_t delta =
            (u.op == UnaryOp::kPreInc || u.op == UnaryOp::kPostInc) ? 1 : -1;
        Value next;
        if (old.type() && old.type()->is_pointer()) {
          next = Value::Pointer(
              old.AsVa() + delta * old.type()->pointee()->ByteSize(),
              old.type());
        } else if (old.type() && old.type()->is_float()) {
          next = Value::Float(old.AsF64() + delta, old.type()->scalar_kind());
        } else {
          next = Value::Int(old.AsI64() + delta,
                            old.type() ? old.type()->scalar_kind()
                                       : ScalarKind::kInt);
        }
        BRIDGECL_RETURN_IF_ERROR(Write(lv, next));
        bool pre = u.op == UnaryOp::kPreInc || u.op == UnaryOp::kPreDec;
        return pre ? next : old;
      }
      case UnaryOp::kPlus:
        return Eval(*u.operand);
      case UnaryOp::kMinus: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        if (v.is_vector()) {
          Value out = v;
          bool flt = IsFloatScalar(v.type()->scalar_kind());
          for (auto& c : out.comps()) {
            if (flt)
              c.f = -c.f;
            else
              c.i = -c.i;
          }
          return out;
        }
        if (v.type() && v.type()->is_float())
          return Value::Float(-v.AsF64(), v.type()->scalar_kind());
        return Value::Int(-v.AsI64(), v.type() ? v.type()->scalar_kind()
                                               : ScalarKind::kInt);
      }
      case UnaryOp::kNot: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        return Value::Int(v.AsBool() ? 0 : 1);
      }
      case UnaryOp::kBitNot: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        if (v.is_vector()) {
          Value out = v;
          for (auto& c : out.comps()) c.u = ~c.u;
          return out.ConvertTo(v.type());
        }
        return Value::Int(~v.AsI64(), v.type() ? v.type()->scalar_kind()
                                               : ScalarKind::kInt);
      }
    }
    return Err("unhandled unary operator");
  }

  static ScalarVal ApplyScalarOp(BinaryOp op, ScalarVal a, ScalarVal b,
                                 ScalarKind k, Status* err) {
    ScalarVal out{};
    bool flt = IsFloatScalar(k);
    bool sgn = IsSignedScalar(k);
    auto div0 = [&] {
      *err = InternalError("division by zero in kernel");
      return out;
    };
    // Integer +, -, * wrap in uint64_t: the same bits as two's-complement
    // int64_t arithmetic, without signed-overflow UB.
    switch (op) {
      case BinaryOp::kAdd:
        if (flt) out.f = a.f + b.f; else out.u = a.u + b.u;
        return out;
      case BinaryOp::kSub:
        if (flt) out.f = a.f - b.f; else out.u = a.u - b.u;
        return out;
      case BinaryOp::kMul:
        if (flt) out.f = a.f * b.f; else out.u = a.u * b.u;
        return out;
      case BinaryOp::kDiv:
        if (flt) {
          out.f = a.f / b.f;
        } else if (sgn) {
          if (b.i == 0) return div0();
          out.i = a.i / b.i;
        } else {
          if (b.u == 0) return div0();
          out.u = a.u / b.u;
        }
        return out;
      case BinaryOp::kRem:
        if (flt) {
          out.f = std::fmod(a.f, b.f);
        } else if (sgn) {
          if (b.i == 0) return div0();
          out.i = a.i % b.i;
        } else {
          if (b.u == 0) return div0();
          out.u = a.u % b.u;
        }
        return out;
      case BinaryOp::kShl:
        out.u = a.u << (b.u & 63);
        return out;
      case BinaryOp::kShr:
        if (sgn) out.i = a.i >> (b.u & 63);
        else out.u = a.u >> (b.u & 63);
        return out;
      case BinaryOp::kAnd: out.u = a.u & b.u; return out;
      case BinaryOp::kOr: out.u = a.u | b.u; return out;
      case BinaryOp::kXor: out.u = a.u ^ b.u; return out;
      case BinaryOp::kEQ:
        out.i = flt ? (a.f == b.f) : (a.u == b.u);
        return out;
      case BinaryOp::kNE:
        out.i = flt ? (a.f != b.f) : (a.u != b.u);
        return out;
      case BinaryOp::kLT:
        out.i = flt ? (a.f < b.f) : sgn ? (a.i < b.i) : (a.u < b.u);
        return out;
      case BinaryOp::kGT:
        out.i = flt ? (a.f > b.f) : sgn ? (a.i > b.i) : (a.u > b.u);
        return out;
      case BinaryOp::kLE:
        out.i = flt ? (a.f <= b.f) : sgn ? (a.i <= b.i) : (a.u <= b.u);
        return out;
      case BinaryOp::kGE:
        out.i = flt ? (a.f >= b.f) : sgn ? (a.i >= b.i) : (a.u >= b.u);
        return out;
      default:
        *err = InternalError("unhandled scalar binary op");
        return out;
    }
  }

  StatusOr<Value> ApplyBinary(BinaryOp op, const Value& a, const Value& b) {
    const auto& prof = L_.device->profile();
    double c = (op == BinaryOp::kDiv || op == BinaryOp::kRem)
                   ? prof.cost_div
                   : prof.cost_alu;
    // Pointer arithmetic.
    bool cmp = op == BinaryOp::kEQ || op == BinaryOp::kNE ||
               op == BinaryOp::kLT || op == BinaryOp::kGT ||
               op == BinaryOp::kLE || op == BinaryOp::kGE;
    if (a.type() && a.type()->is_pointer() && !cmp) {
      ChargeOp(c);
      size_t esz = a.type()->pointee()->ByteSize();
      if (op == BinaryOp::kSub && b.type() && b.type()->is_pointer()) {
        return Value::Int(
            static_cast<int64_t>(a.AsVa() - b.AsVa()) /
                static_cast<int64_t>(esz),
            ScalarKind::kLong);
      }
      int64_t off = b.AsI64();
      uint64_t va = op == BinaryOp::kSub ? a.AsVa() - off * esz
                                         : a.AsVa() + off * esz;
      return Value::Pointer(va, a.type());
    }
    if (b.type() && b.type()->is_pointer() && op == BinaryOp::kAdd) {
      return ApplyBinary(op, b, a);
    }
    // Vector / scalar elementwise.
    if ((a.is_vector() || b.is_vector())) {
      const Value& vec = a.is_vector() ? a : b;
      int w = vec.type()->vector_width();
      ScalarKind ek = ArithmeticResultType(a.type(), b.type())
                          ->scalar_kind();
      Type::Ptr et = Type::Scalar(ek);
      Value av = a.ConvertTo(Type::Vector(ek, w));
      Value bv = b.ConvertTo(Type::Vector(ek, w));
      std::vector<ScalarVal> comps(w);
      Status err;
      for (int i = 0; i < w; ++i) {
        comps[i] = ApplyScalarOp(op, av.comps()[i], bv.comps()[i], ek, &err);
        if (!err.ok()) return err;
      }
      ChargeOp(c * w);
      if (cmp) {
        // Vector comparisons produce an int vector of 0/-1 per OpenCL.
        for (auto& s : comps) s.i = s.i ? -1 : 0;
        return Value::Vector(Type::Vector(ScalarKind::kInt, w),
                             std::move(comps));
      }
      return Value::Vector(Type::Vector(ek, w), std::move(comps));
    }
    // Scalars: usual conversions.
    Type::Ptr rt = ArithmeticResultType(a.type(), b.type());
    ScalarKind k = rt->scalar_kind();
    if (cmp) {
      // Compare in the common type but return int.
      Value ac = a.ConvertTo(Type::Scalar(k));
      Value bc = b.ConvertTo(Type::Scalar(k));
      Status err;
      ScalarVal r = ApplyScalarOp(op, ac.scalar(), bc.scalar(), k, &err);
      if (!err.ok()) return err;
      ChargeOp(c);
      return Value::Int(r.i);
    }
    Value ac = a.ConvertTo(Type::Scalar(k));
    Value bc = b.ConvertTo(Type::Scalar(k));
    Status err;
    ScalarVal r = ApplyScalarOp(op, ac.scalar(), bc.scalar(), k, &err);
    if (!err.ok()) return err;
    ChargeOp(c);
    Value out;
    out.set_type(Type::Scalar(k));
    out.set_scalar(r);
    return out;
  }

  StatusOr<Value> EvalBinary(const BinaryExpr& b) {
    if (b.op == BinaryOp::kLAnd) {
      BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
      ChargeOp(L_.device->profile().cost_alu);
      if (!l.AsBool()) return Value::Int(0);
      BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
      return Value::Int(r.AsBool() ? 1 : 0);
    }
    if (b.op == BinaryOp::kLOr) {
      BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
      ChargeOp(L_.device->profile().cost_alu);
      if (l.AsBool()) return Value::Int(1);
      BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
      return Value::Int(r.AsBool() ? 1 : 0);
    }
    if (b.op == BinaryOp::kComma) {
      BRIDGECL_RETURN_IF_ERROR(Eval(*b.lhs).status());
      return Eval(*b.rhs);
    }
    BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
    BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
    return ApplyBinary(b.op, l, r);
  }

  StatusOr<Value> EvalAssign(const AssignExpr& a) {
    BRIDGECL_ASSIGN_OR_RETURN(Value rhs, Eval(*a.rhs));
    BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*a.lhs));
    if (a.compound) {
      BRIDGECL_ASSIGN_OR_RETURN(Value old, Read(lv));
      BRIDGECL_ASSIGN_OR_RETURN(rhs, ApplyBinary(a.op, old, rhs));
    }
    BRIDGECL_RETURN_IF_ERROR(Write(lv, rhs));
    return rhs;
  }

  // -- calls ---------------------------------------------------------------
  StatusOr<Value> EvalCall(const CallExpr& c) {
    const DeclRefExpr* ref =
        c.callee->kind == ExprKind::kDeclRef ? c.callee->As<DeclRefExpr>()
                                             : nullptr;
    if (ref != nullptr && ref->function != nullptr && ref->function->body) {
      return CallFunction(ref->function, c);
    }
    if (ref != nullptr && ref->builtin) return CallBuiltin(ref->builtin, c);
    return Err("call to undefined function '" + c.callee_name() + "'");
  }

  StatusOr<Value> CallFunction(const FunctionDecl* fn, const CallExpr& c) {
    size_t left = L_.group->StackLeft();
    size_t level = frame().stack_left - left;  // host stack of this call
    if (static_cast<int>(frames_.size()) > kMaxCallDepth ||
        left < level + kCallStackCushion)
      return Err("device call stack overflow (recursion too deep)");
    if (c.args.size() != fn->params.size())
      return Err("wrong argument count calling '" + fn->name + "'");
    // Evaluate arguments in the caller's frame; reference parameters bind
    // to the argument's location right away.
    Frame callee{fn, std::vector<Slot>(fn->frame_slots), left};
    std::vector<Value> vals(c.args.size());
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (i < fn->param_is_reference.size() && fn->param_is_reference[i]) {
        Slot& s = callee.slots[fn->params[i]->slot];
        s.kind = Slot::Kind::kRef;
        BRIDGECL_ASSIGN_OR_RETURN(s.lv, Lval(*c.args[i]));
      } else {
        BRIDGECL_ASSIGN_OR_RETURN(vals[i], Eval(*c.args[i]));
      }
    }
    uint64_t saved_top = private_top_;
    frames_.push_back(std::move(callee));
    for (size_t i = 0; i < c.args.size(); ++i) {
      const VarDecl* p = fn->params[i].get();
      if (frame().slots[p->slot].kind != Slot::Kind::kRef)
        BRIDGECL_RETURN_IF_ERROR(BindVar(p, vals[i]));
    }
    ret_ = Value::Void();
    auto flow = Exec(*fn->body);
    frames_.pop_back();
    private_top_ = saved_top;
    if (!flow.ok()) return flow.status();
    ChargeOp(L_.device->profile().cost_alu);  // call overhead
    return ret_;
  }

  // ---- builtin implementations ----
  StatusOr<std::vector<Value>> EvalArgs(const CallExpr& c) {
    std::vector<Value> args;
    args.reserve(c.args.size());
    for (const auto& a : c.args) {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*a));
      args.push_back(std::move(v));
    }
    return args;
  }

  /// Elementwise unary math: float if the spelling is single-precision or
  /// the argument is float, double otherwise.
  StatusOr<Value> Math1(const BuiltinRef& b, const CallExpr& c,
                        double (*fn)(double)) {
    BRIDGECL_ASSIGN_OR_RETURN(Value a, Eval(*c.args[0]));
    cycles_ += L_.device->profile().cost_math;
    bool is_float_res =
        b.info->float_result ||
        (a.type() && (a.type()->is_vector() || a.type()->is_scalar()) &&
         a.type()->scalar_kind() == ScalarKind::kFloat);
    ScalarKind k = is_float_res ? ScalarKind::kFloat : ScalarKind::kDouble;
    if (a.is_vector()) {
      for (auto& cmp : a.comps()) {
        double x = IsFloatScalar(a.type()->scalar_kind())
                       ? cmp.f
                       : static_cast<double>(cmp.i);
        cmp.f = k == ScalarKind::kFloat ? static_cast<float>(fn(x)) : fn(x);
      }
      a.set_type(Type::Vector(k, a.type()->vector_width()));
      return a;
    }
    return Value::Float(fn(a.AsF64()), k);
  }

  /// Elementwise binary math (a scalar second argument broadcasts).
  StatusOr<Value> Math2(const BuiltinRef& b, const CallExpr& c,
                        double (*fn)(double, double)) {
    BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
    cycles_ += L_.device->profile().cost_math;
    const Value& x = args[0];
    const Value& y = args[1];
    bool use_float =
        b.info->float_result ||
        (x.type() && x.type()->scalar_kind() == ScalarKind::kFloat);
    ScalarKind k = use_float ? ScalarKind::kFloat : ScalarKind::kDouble;
    if (x.is_vector()) {
      int w = x.type()->vector_width();
      Value yy = y.ConvertTo(Type::Vector(k, w));
      Value out = x.ConvertTo(Type::Vector(k, w));
      for (int i = 0; i < w; ++i)
        out.comps()[i].f = fn(out.comps()[i].f, yy.comps()[i].f);
      return out;
    }
    return Value::Float(fn(x.AsF64(), y.AsF64()), k);
  }

  StatusOr<Value> CallBuiltin(const BuiltinRef& b, const CallExpr& c);
  StatusOr<Value> EvalImageRead(const CallExpr& c, ScalarKind out_kind);
  StatusOr<Value> EvalImageWrite(const CallExpr& c);
  StatusOr<Value> EvalTexFetch(const CallExpr& c);
  StatusOr<Value> EvalAtomic(Op op, const CallExpr& c);
  StatusOr<ImageDesc> LoadImageDesc(uint64_t va);
  StatusOr<Value> ReadTexel(const ImageDesc& d, int x, int y, int z,
                            ScalarKind out_kind);

  LaunchState& L_;
  Dim3 lid_;
  Dim3 gid_;
  uint64_t private_base_ = 0;
  uint64_t private_top_ = 0;
  double cycles_ = 0;
  std::vector<Frame> frames_;
  Slot module_var_;  // Locate's entry for a module-scope variable
  Value ret_;

 public:
  double TakeCycles() { return cycles_; }
};

StatusOr<ImageDesc> Evaluator::LoadImageDesc(uint64_t va) {
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                            L_.device->vm().Resolve(va, sizeof(ImageDesc)));
  ImageDesc d;
  std::memcpy(&d, p, sizeof(d));
  return d;
}

StatusOr<Value> Evaluator::ReadTexel(const ImageDesc& d, int x, int y, int z,
                                     ScalarKind out_kind) {
  auto clampi = [](int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  x = clampi(x, 0, static_cast<int>(d.width) - 1);
  y = clampi(y, 0, static_cast<int>(d.height) - 1);
  z = clampi(z, 0, static_cast<int>(d.depth) - 1);
  uint32_t texel = ImageTexelBytes(d);
  uint64_t va = d.data_va + static_cast<uint64_t>(z) * d.slice_pitch +
                static_cast<uint64_t>(y) * d.row_pitch +
                static_cast<uint64_t>(x) * texel;
  ScalarKind ek = static_cast<ScalarKind>(d.elem_kind);
  size_t esz = lang::ScalarByteSize(ek);
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, L_.device->vm().Resolve(va, texel));
  ++L_.stats->image_accesses;
  cycles_ += L_.device->profile().cost_image_access;
  std::vector<ScalarVal> comps(4);
  for (uint32_t ch = 0; ch < 4; ++ch) {
    if (ch < d.channels) {
      BRIDGECL_ASSIGN_OR_RETURN(Value v,
                                DecodeValue(Type::Scalar(ek), p + ch * esz));
      comps[ch] = v.ConvertTo(Type::Scalar(out_kind)).scalar();
    } else {
      // Missing channels read as 0 (alpha as 1.0 for floats).
      if (ch == 3 && IsFloatScalar(out_kind)) comps[ch].f = 1.0;
    }
  }
  return Value::Vector(Type::Vector(out_kind, 4), std::move(comps));
}

StatusOr<Value> Evaluator::EvalImageRead(const CallExpr& c,
                                         ScalarKind out_kind) {
  BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
  uint32_t sampler_bits = d.sampler_bits;
  const Expr* coord_expr = c.args.back().get();
  if (c.args.size() == 3) {
    BRIDGECL_ASSIGN_OR_RETURN(Value s, Eval(*c.args[1]));
    sampler_bits = static_cast<uint32_t>(s.AsU64());
  }
  BRIDGECL_ASSIGN_OR_RETURN(Value coord, Eval(*coord_expr));
  bool float_coords =
      coord.type() && IsFloatScalar(coord.type()->scalar_kind());

  double fx = 0, fy = 0, fz = 0;
  if (coord.is_vector()) {
    fx = coord.Component(0).AsF64();
    if (coord.type()->vector_width() > 1) fy = coord.Component(1).AsF64();
    if (coord.type()->vector_width() > 2) fz = coord.Component(2).AsF64();
  } else {
    fx = coord.AsF64();
  }
  if (float_coords && (sampler_bits & kSamplerNormalizedCoords)) {
    fx *= d.width;
    fy *= d.height;
    fz *= d.depth;
  }
  if (float_coords && (sampler_bits & kSamplerFilterLinear)) {
    // Bilinear filtering (2D path; 1D degenerates, 3D uses nearest z).
    double u = fx - 0.5, v = fy - 0.5;
    int x0 = static_cast<int>(std::floor(u));
    int y0 = static_cast<int>(std::floor(v));
    double a = u - x0, b = v - y0;
    Value t00, t10, t01, t11;
    BRIDGECL_ASSIGN_OR_RETURN(
        t00, ReadTexel(d, x0, y0, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t10, ReadTexel(d, x0 + 1, y0, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t01, ReadTexel(d, x0, y0 + 1, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t11, ReadTexel(d, x0 + 1, y0 + 1, static_cast<int>(fz), out_kind));
    std::vector<ScalarVal> comps(4);
    for (int i = 0; i < 4; ++i) {
      double r = t00.comps()[i].f * (1 - a) * (1 - b) +
                 t10.comps()[i].f * a * (1 - b) +
                 t01.comps()[i].f * (1 - a) * b + t11.comps()[i].f * a * b;
      comps[i].f = r;
    }
    return Value::Vector(Type::Vector(out_kind, 4), std::move(comps));
  }
  return ReadTexel(d, static_cast<int>(fx), static_cast<int>(fy),
                   static_cast<int>(fz), out_kind);
}

StatusOr<Value> Evaluator::EvalImageWrite(const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
  BRIDGECL_ASSIGN_OR_RETURN(Value coord, Eval(*c.args[1]));
  BRIDGECL_ASSIGN_OR_RETURN(Value color, Eval(*c.args[2]));
  int x = 0, y = 0, z = 0;
  if (coord.is_vector()) {
    x = static_cast<int>(coord.Component(0).AsI64());
    if (coord.type()->vector_width() > 1)
      y = static_cast<int>(coord.Component(1).AsI64());
    if (coord.type()->vector_width() > 2)
      z = static_cast<int>(coord.Component(2).AsI64());
  } else {
    x = static_cast<int>(coord.AsI64());
  }
  if (x < 0 || x >= static_cast<int>(d.width) || y < 0 ||
      y >= static_cast<int>(d.height) || z < 0 ||
      z >= static_cast<int>(d.depth))
    return Value::Void();  // out-of-bounds writes are dropped (CL rule)
  ScalarKind ek = static_cast<ScalarKind>(d.elem_kind);
  size_t esz = lang::ScalarByteSize(ek);
  uint64_t va = d.data_va + static_cast<uint64_t>(z) * d.slice_pitch +
                static_cast<uint64_t>(y) * d.row_pitch +
                static_cast<uint64_t>(x) * ImageTexelBytes(d);
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                            L_.device->vm().Resolve(va, ImageTexelBytes(d)));
  ++L_.stats->image_accesses;
  cycles_ += L_.device->profile().cost_image_access;
  for (uint32_t ch = 0; ch < d.channels; ++ch) {
    Value comp = color.is_vector() ? color.Component(ch) : color;
    BRIDGECL_RETURN_IF_ERROR(
        EncodeValue(comp.ConvertTo(Type::Scalar(ek)), p + ch * esz));
  }
  return Value::Void();
}

StatusOr<Value> Evaluator::EvalTexFetch(const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value tex, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(tex.AsVa()));
  Type::Ptr tex_t = c.args[0]->type;
  ScalarKind out_kind =
      tex_t && tex_t->is_texture() ? tex_t->scalar_kind() : ScalarKind::kFloat;
  int out_width = tex_t && tex_t->is_texture() ? tex_t->vector_width() : 1;

  double fx = 0, fy = 0, fz = 0;
  BRIDGECL_ASSIGN_OR_RETURN(Value cx, Eval(*c.args[1]));
  fx = cx.AsF64();
  if (c.args.size() > 2) {
    BRIDGECL_ASSIGN_OR_RETURN(Value cy, Eval(*c.args[2]));
    fy = cy.AsF64();
  }
  if (c.args.size() > 3) {
    BRIDGECL_ASSIGN_OR_RETURN(Value cz, Eval(*c.args[3]));
    fz = cz.AsF64();
  }
  if (d.sampler_bits & kSamplerNormalizedCoords) {
    fx *= d.width;
    fy *= d.height;
    fz *= d.depth;
  }
  ScalarKind fetch_kind =
      IsFloatScalar(out_kind) ? ScalarKind::kFloat : out_kind;
  BRIDGECL_ASSIGN_OR_RETURN(
      Value texel, ReadTexel(d, static_cast<int>(fx), static_cast<int>(fy),
                             static_cast<int>(fz), fetch_kind));
  if (out_width == 1) return texel.Component(0).ConvertTo(Type::Scalar(out_kind));
  std::vector<ScalarVal> comps(out_width);
  for (int i = 0; i < out_width; ++i)
    comps[i] = texel.Component(i).ConvertTo(Type::Scalar(out_kind)).scalar();
  return Value::Vector(Type::Vector(out_kind, out_width), std::move(comps));
}

StatusOr<Value> Evaluator::EvalAtomic(Op op, const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[0]));
  Type::Ptr elem = ptr.type() && ptr.type()->is_pointer()
                       ? ptr.type()->pointee()
                       : Type::IntTy();
  uint64_t va = ptr.AsVa();
  ++L_.stats->atomics;
  cycles_ += L_.device->profile().cost_atomic;
  BRIDGECL_ASSIGN_OR_RETURN(Value old, LoadMem(va, elem));
  Value operand;
  if (c.args.size() > 1) {
    BRIDGECL_ASSIGN_OR_RETURN(operand, Eval(*c.args[1]));
    operand = operand.ConvertTo(elem);
  }
  Value next = old;
  bool flt = elem->is_float();
  ScalarKind k = elem->scalar_kind();
  uint64_t ou = old.AsU64(), vu = operand.AsU64();
  switch (op) {
    // OpenCL atomic_inc/atomic_dec: unconditional +-1 (no operand).
    case Op::kAtomicInc: next = Value::Int(old.AsI64() + 1, k); break;
    case Op::kAtomicDec: next = Value::Int(old.AsI64() - 1, k); break;
    // CUDA atomicInc/atomicDec: wrap semantics against args[1] (§3.7).
    case Op::kAtomicIncWrap:
      next = Value::UInt(ou >= vu ? 0 : ou + 1, k);
      break;
    case Op::kAtomicDecWrap:
      next = Value::UInt((ou == 0 || ou > vu) ? vu : ou - 1, k);
      break;
    case Op::kAtomicAdd:
      next = flt ? Value::Float(old.AsF64() + operand.AsF64(), k)
                 : Value::Int(old.AsI64() + operand.AsI64(), k);
      break;
    case Op::kAtomicSub:
      next = Value::Int(old.AsI64() - operand.AsI64(), k);
      break;
    case Op::kAtomicXchg: next = operand; break;
    case Op::kAtomicMin:
    case Op::kAtomicMax: {
      bool less = flt                  ? operand.AsF64() < old.AsF64()
                  : IsSignedScalar(k) ? operand.AsI64() < old.AsI64()
                                      : vu < ou;
      bool greater = flt                  ? operand.AsF64() > old.AsF64()
                     : IsSignedScalar(k) ? operand.AsI64() > old.AsI64()
                                         : vu > ou;
      next = (op == Op::kAtomicMin ? less : greater) ? operand : old;
      break;
    }
    case Op::kAtomicAnd: next = Value::UInt(ou & vu, k); break;
    case Op::kAtomicOr: next = Value::UInt(ou | vu, k); break;
    case Op::kAtomicXor: next = Value::UInt(ou ^ vu, k); break;
    case Op::kAtomicCmpxchg: {
      BRIDGECL_ASSIGN_OR_RETURN(Value desired, Eval(*c.args[2]));
      if (ou == vu) next = desired.ConvertTo(elem);
      break;
    }
    default:
      return Err("not an atomic builtin");
  }
  BRIDGECL_RETURN_IF_ERROR(StoreMem(va, next.ConvertTo(elem)));
  return old;
}

StatusOr<Value> Evaluator::CallBuiltin(const BuiltinRef& b,
                                       const CallExpr& c) {
  const auto& prof = L_.device->profile();
  switch (b.op()) {
    // ---- work-item functions (OpenCL). OpenCL 1.2 §6.12.1: a dimindx
    // outside [0, get_work_dim()) reads as id 0 / size 1.
    case Op::kGlobalId:
    case Op::kLocalId:
    case Op::kGroupId:
    case Op::kGlobalSize:
    case Op::kLocalSize:
    case Op::kNumGroups: {
      BRIDGECL_ASSIGN_OR_RETURN(Value dv, Eval(*c.args[0]));
      int64_t d = dv.AsI64();
      const Dim3& grid = L_.cfg.grid;
      const Dim3& block = L_.cfg.block;
      uint64_t v;
      switch (b.op()) {
        case Op::kGlobalId: v = d < 0 || d > 2 ? 0 : gid_[d]; break;
        case Op::kLocalId: v = d < 0 || d > 2 ? 0 : lid_[d]; break;
        case Op::kGroupId: v = d < 0 || d > 2 ? 0 : L_.group_id[d]; break;
        case Op::kGlobalSize:
          v = d < 0 || d > 2 ? 1 : uint64_t{grid[d]} * block[d];
          break;
        case Op::kLocalSize: v = d < 0 || d > 2 ? 1 : block[d]; break;
        default: v = d < 0 || d > 2 ? 1 : grid[d]; break;  // kNumGroups
      }
      return Value::UInt(v, ScalarKind::kSizeT);
    }
    case Op::kWorkDim: return Value::UInt(3);
    case Op::kGlobalOffset: return Value::UInt(0, ScalarKind::kSizeT);

    // ---- synchronization ----
    case Op::kBarrier:
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      ++L_.stats->barriers;
      cycles_ += prof.cost_barrier;
      L_.group->Barrier();
      return Value::Void();
    case Op::kMemFence:
    case Op::kThreadFence:
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      cycles_ += prof.cost_alu;
      return Value::Void();

    // ---- images / textures ----
    case Op::kReadImageF: return EvalImageRead(c, ScalarKind::kFloat);
    case Op::kReadImageI: return EvalImageRead(c, ScalarKind::kInt);
    case Op::kReadImageUI: return EvalImageRead(c, ScalarKind::kUInt);
    case Op::kWriteImage: return EvalImageWrite(c);
    case Op::kTexFetch: return EvalTexFetch(c);
    case Op::kImageWidth:
    case Op::kImageHeight: {
      BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
      return Value::Int(b.op() == Op::kImageWidth ? d.width : d.height);
    }

    // ---- atomics ----
    case Op::kAtomicAdd:
    case Op::kAtomicSub:
    case Op::kAtomicInc:
    case Op::kAtomicDec:
    case Op::kAtomicIncWrap:
    case Op::kAtomicDecWrap:
    case Op::kAtomicXchg:
    case Op::kAtomicCmpxchg:
    case Op::kAtomicMin:
    case Op::kAtomicMax:
    case Op::kAtomicAnd:
    case Op::kAtomicOr:
    case Op::kAtomicXor:
      return EvalAtomic(b.op(), c);

    // ---- vector family ----
    case Op::kMakeVector: {
      std::vector<ScalarVal> comps(b.width);
      for (int i = 0; i < b.width; ++i) {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[i]));
        comps[i] = v.ConvertTo(Type::Scalar(b.elem)).scalar();
      }
      ChargeOp(prof.cost_alu);
      return Value::Vector(Type::Vector(b.elem, b.width), std::move(comps));
    }
    case Op::kConvert: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return v.ConvertTo(b.width == 0 ? Type::Scalar(b.elem)
                                      : Type::Vector(b.elem, b.width));
    }
    case Op::kAs: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      return v.BitcastTo(b.width == 0 ? Type::Scalar(b.elem)
                                      : Type::Vector(b.elem, b.width));
    }
    case Op::kVload: {
      int w = b.width;
      BRIDGECL_ASSIGN_OR_RETURN(Value off, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[1]));
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      Type::Ptr vt = Type::Vector(elem->scalar_kind(), w);
      uint64_t va = ptr.AsVa() + off.AsU64() * w * elem->ByteSize();
      // vload reads w packed elements (no vec3 padding).
      std::vector<ScalarVal> comps(w);
      for (int i = 0; i < w; ++i) {
        BRIDGECL_ASSIGN_OR_RETURN(Value v,
                                  LoadMem(va + i * elem->ByteSize(), elem));
        comps[i] = v.scalar();
      }
      return Value::Vector(vt, std::move(comps));
    }
    case Op::kVstore: {
      int w = b.width;
      BRIDGECL_ASSIGN_OR_RETURN(Value data, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(Value off, Eval(*c.args[1]));
      BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[2]));
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      uint64_t va = ptr.AsVa() + off.AsU64() * w * elem->ByteSize();
      for (int i = 0; i < w; ++i) {
        BRIDGECL_RETURN_IF_ERROR(StoreMem(
            va + i * elem->ByteSize(), data.Component(i).ConvertTo(elem)));
      }
      return Value::Void();
    }

    // ---- warp-level CUDA built-ins: degenerate single-lane semantics.
    // These exist so that mcuda can *run* CUDA-only samples natively; the
    // CU→CL translator rejects them (§3.7 / Table 3).
    case Op::kShfl: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      for (size_t i = 1; i < c.args.size(); ++i)
        BRIDGECL_RETURN_IF_ERROR(Eval(*c.args[i]).status());
      ChargeOp(prof.cost_alu);
      return v;
    }
    case Op::kAll:
    case Op::kAny: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::Int(v.AsBool() ? 1 : 0);
    }
    case Op::kBallot: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::UInt(v.AsBool() ? 1u : 0u);
    }
    case Op::kClock: return Value::Int(static_cast<int64_t>(cycles_));
    case Op::kClock64:
      return Value::Int(static_cast<int64_t>(cycles_), ScalarKind::kLongLong);
    case Op::kProfTrigger:
      // No profiler counters to bump in the simulator.
      BRIDGECL_RETURN_IF_ERROR(Eval(*c.args[0]).status());
      return Value::Void();
    case Op::kAssert: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      if (!v.AsBool()) return Err("device-side assert failed");
      return Value::Void();
    }
    case Op::kPrintf:
      // Arguments are evaluated for side effects; output is suppressed in
      // the simulator (matches running with stdout redirected).
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      return Value::Int(0);

    // ---- math (elementwise over vectors) ----
    case Op::kSqrt: return Math1(b, c, std::sqrt);
    case Op::kRsqrt:
      return Math1(b, c, [](double x) { return 1.0 / std::sqrt(x); });
    case Op::kCbrt: return Math1(b, c, std::cbrt);
    case Op::kExp: return Math1(b, c, std::exp);
    case Op::kExp2: return Math1(b, c, std::exp2);
    case Op::kLog: return Math1(b, c, std::log);
    case Op::kLog2: return Math1(b, c, std::log2);
    case Op::kLog10: return Math1(b, c, std::log10);
    case Op::kSin: return Math1(b, c, std::sin);
    case Op::kCos: return Math1(b, c, std::cos);
    case Op::kTan: return Math1(b, c, std::tan);
    case Op::kAsin: return Math1(b, c, std::asin);
    case Op::kAcos: return Math1(b, c, std::acos);
    case Op::kAtan: return Math1(b, c, std::atan);
    case Op::kSinh: return Math1(b, c, std::sinh);
    case Op::kCosh: return Math1(b, c, std::cosh);
    case Op::kTanh: return Math1(b, c, std::tanh);
    case Op::kFabs: return Math1(b, c, std::fabs);
    case Op::kFloor: return Math1(b, c, std::floor);
    case Op::kCeil: return Math1(b, c, std::ceil);
    case Op::kTrunc: return Math1(b, c, std::trunc);
    case Op::kRound: return Math1(b, c, std::round);
    case Op::kAtan2: return Math2(b, c, std::atan2);
    case Op::kFmin: return Math2(b, c, std::fmin);
    case Op::kFmax: return Math2(b, c, std::fmax);
    case Op::kFmod: return Math2(b, c, std::fmod);
    case Op::kPow: return Math2(b, c, std::pow);
    case Op::kDivide:
      return Math2(b, c, [](double x, double y) { return x / y; });
    case Op::kFma: {
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      cycles_ += prof.cost_alu;
      if (args[0].is_vector()) {
        Type::Ptr vt = args[0].type();
        Value a = args[0], y = args[1].ConvertTo(vt), z = args[2].ConvertTo(vt);
        Value out = a;
        for (int i = 0; i < vt->vector_width(); ++i)
          out.comps()[i].f =
              a.comps()[i].f * y.comps()[i].f + z.comps()[i].f;
        return out;
      }
      ScalarKind k = b.info->float_result ||
                             (args[0].type() && args[0].type()->scalar_kind() ==
                                                    ScalarKind::kFloat)
                         ? ScalarKind::kFloat
                         : ScalarKind::kDouble;
      return Value::Float(args[0].AsF64() * args[1].AsF64() + args[2].AsF64(),
                          k);
    }

    // ---- integer and common functions ----
    case Op::kMin:
    case Op::kMax: {
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      ChargeOp(prof.cost_alu);
      const Value& x = args[0];
      const Value& y = args[1];
      bool is_min = b.op() == Op::kMin;
      bool take_x;
      if (x.type() && (x.type()->is_float() ||
                       (y.type() && y.type()->is_float()))) {
        take_x = is_min ? x.AsF64() <= y.AsF64() : x.AsF64() >= y.AsF64();
      } else if (x.type() && !IsSignedScalar(x.type()->scalar_kind())) {
        take_x = is_min ? x.AsU64() <= y.AsU64() : x.AsU64() >= y.AsU64();
      } else {
        take_x = is_min ? x.AsI64() <= y.AsI64() : x.AsI64() >= y.AsI64();
      }
      return take_x ? x : y;
    }
    case Op::kAbs: {
      BRIDGECL_ASSIGN_OR_RETURN(Value x, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::Int(std::llabs(x.AsI64()),
                        x.type() ? x.type()->scalar_kind() : ScalarKind::kInt);
    }
    case Op::kClamp: {
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      ChargeOp(prof.cost_alu);
      if (args[0].type() && args[0].type()->is_float()) {
        double v = args[0].AsF64(), lo = args[1].AsF64(), hi = args[2].AsF64();
        return Value::Float(v < lo ? lo : (v > hi ? hi : v),
                            args[0].type()->scalar_kind());
      }
      int64_t v = args[0].AsI64(), lo = args[1].AsI64(), hi = args[2].AsI64();
      return Value::Int(v < lo ? lo : (v > hi ? hi : v));
    }
    case Op::kSelect: {
      // OpenCL select(a, b, c): c chooses b (per-component MSB for vectors).
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      ChargeOp(prof.cost_alu);
      const Value& x = args[0];
      const Value& y = args[1];
      const Value& z = args[2];
      if (x.is_vector()) {
        Value out = x;
        for (int i = 0; i < x.type()->vector_width(); ++i) {
          bool take_y = z.is_vector() ? (z.comps()[i].i < 0) : z.AsBool();
          if (take_y)
            out.comps()[i] = i < static_cast<int>(y.comps().size())
                                 ? y.comps()[i]
                                 : ScalarVal{};
        }
        return out;
      }
      return z.AsBool() ? y : x;
    }
    case Op::kMix: {
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      cycles_ += prof.cost_alu;
      double x = args[0].AsF64(), y = args[1].AsF64(), t = args[2].AsF64();
      return Value::Float(x + (y - x) * t,
                          args[0].type() ? args[0].type()->scalar_kind()
                                         : ScalarKind::kFloat);
    }
    case Op::kMul24: {
      BRIDGECL_ASSIGN_OR_RETURN(std::vector<Value> args, EvalArgs(c));
      ChargeOp(prof.cost_alu);
      return Value::Int((args[0].AsI64() & 0xFFFFFF) *
                        (args[1].AsI64() & 0xFFFFFF));
    }
    case Op::kPopcount: {
      BRIDGECL_ASSIGN_OR_RETURN(Value x, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::Int(__builtin_popcountll(x.AsU64()));
    }
    case Op::kClz: {
      BRIDGECL_ASSIGN_OR_RETURN(Value x, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      uint32_t v = static_cast<uint32_t>(x.AsU64());
      return Value::Int(v == 0 ? 32 : __builtin_clz(v));
    }

    // Identifiers, not functions: sema never resolves a call to them.
    case Op::kNone:
    case Op::kThreadIdx:
    case Op::kBlockIdx:
    case Op::kBlockDim:
    case Op::kGridDim:
    case Op::kWarpSize:
    case Op::kConstant:
    case Op::kHostConstant:
      break;
  }
  return Err("'" + c.callee_name() + "' is not a function");
}

// ---------------------------------------------------------------------------
// Block-parallel grid scheduler support
// ---------------------------------------------------------------------------

/// What a kernel may do to global memory, attributed to the kernel
/// parameter each access flows from. The serial engine runs blocks in
/// canonical order, so a kernel that *reads* a buffer another block
/// *writes* in the same launch (srad2's in-place stencil, nw's in-place
/// wavefront) observes that order; such launches must stay serial for the
/// parallel engine to be bit-identical. Stores to a buffer no block
/// reads are assumed block-disjoint, as data-race-free kernels on real
/// devices are.
struct GlobalAccessSummary {
  uint64_t load_params = 0;   // bit i: loaded through kernel param i
  uint64_t store_params = 0;  // bit i: stored through kernel param i
  bool unknown_load = false;  // global load of unattributable provenance
  bool unknown_store = false;
  bool uses_atomics = false;
};

/// Which kernel parameters a pointer value may be derived from.
struct Prov {
  uint64_t mask = 0;     // bit i: possibly derived from kernel param i
  bool unknown = false;  // possibly derived from something else entirely
};

Prov UnionProv(Prov a, const Prov& b) {
  a.mask |= b.mask;
  a.unknown |= b.unknown;
  return a;
}

/// Flow-insensitive, inlining, address-taken-conservative scan of a
/// kernel's global memory accesses. Local pointer variables accumulate
/// the provenance of everything assigned to them (fixpoint over the
/// body); pointers loaded from memory or returned by calls are unknown.
class HazardScanner {
 public:
  GlobalAccessSummary Analyze(const FunctionDecl* kernel) {
    std::vector<Prov> params(kernel->params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      if (i < 64)
        params[i].mask = 1ull << i;
      else
        params[i].unknown = true;
    }
    ScanFunction(kernel, std::move(params));
    return sum_;
  }

 private:
  /// Provenance per frame slot of the function being scanned; a slot not
  /// yet bound (or a module-scope variable) reads as unknown if a pointer.
  using Env = std::vector<std::optional<Prov>>;

  GlobalAccessSummary sum_;
  std::vector<const FunctionDecl*> call_stack_;
  bool record_ = false;   // accesses recorded only on the settled pass
  bool changed_ = false;  // an env entry grew this pass

  void ScanFunction(const FunctionDecl* fn, std::vector<Prov> param_prov) {
    if (std::find(call_stack_.begin(), call_stack_.end(), fn) !=
        call_stack_.end()) {
      // Recursive cycle: give up on attribution.
      sum_.unknown_load = sum_.unknown_store = true;
      return;
    }
    call_stack_.push_back(fn);
    Env env(fn->frame_slots);
    for (size_t i = 0; i < fn->params.size() && i < param_prov.size(); ++i)
      env[fn->params[i]->slot] = param_prov[i];
    bool outer_record = record_;
    // Propagate provenance through local pointer vars to a fixpoint
    // without recording, then one recording pass. Entries only grow in a
    // finite lattice (64-bit mask plus the unknown flag), so this ends.
    record_ = false;
    do {
      changed_ = false;
      ScanStmt(fn->body.get(), env);
    } while (changed_);
    record_ = true;
    ScanStmt(fn->body.get(), env);
    record_ = outer_record;
    call_stack_.pop_back();
  }

  void Bind(Env& env, const VarDecl* var, const Prov& p) {
    if (var->slot < 0) return;  // module scope: stays unknown
    Prov old = env[var->slot].value_or(Prov{});
    Prov merged = UnionProv(old, p);
    env[var->slot] = merged;
    if (merged.mask != old.mask || merged.unknown != old.unknown)
      changed_ = true;
  }

  static bool IsPointer(const Expr* e) {
    return e != nullptr && e->type != nullptr && e->type->is_pointer();
  }

  void Record(const Expr* ptr, Env& env, bool load, bool store) {
    if (!record_ || !IsPointer(ptr)) return;
    AddressSpace space = ptr->type->pointee_space();
    // Local memory is per-slot, constant is read-only: neither can carry
    // cross-block dependences.
    if (space == AddressSpace::kLocal || space == AddressSpace::kConstant)
      return;
    Prov p = ProvOf(ptr, env);
    if (space != AddressSpace::kGlobal && p.mask == 0 && !p.unknown)
      return;  // provably private (e.g. &stack_var)
    if (load) {
      sum_.load_params |= p.mask;
      sum_.unknown_load |= p.unknown;
    }
    if (store) {
      sum_.store_params |= p.mask;
      sum_.unknown_store |= p.unknown;
    }
  }

  /// Provenance of the address of lvalue `e` (for &lvalue).
  Prov ProvOfLvalueBase(const Expr* e, Env& env) {
    if (e == nullptr) return {};
    switch (e->kind) {
      case ExprKind::kIndex:
        return ProvOf(e->As<IndexExpr>()->base.get(), env);
      case ExprKind::kMember: {
        const auto* m = e->As<MemberExpr>();
        return m->is_arrow ? ProvOf(m->base.get(), env)
                           : ProvOfLvalueBase(m->base.get(), env);
      }
      case ExprKind::kUnary: {
        const auto* u = e->As<UnaryExpr>();
        if (u->op == UnaryOp::kDeref) return ProvOf(u->operand.get(), env);
        return ProvOfLvalueBase(u->operand.get(), env);
      }
      case ExprKind::kParen:
        return ProvOfLvalueBase(e->As<ParenExpr>()->inner.get(), env);
      case ExprKind::kCast:
        return ProvOfLvalueBase(e->As<CastExpr>()->operand.get(), env);
      case ExprKind::kDeclRef: {
        const auto* r = e->As<DeclRefExpr>();
        // &local_scalar / &local_array: provably private. Taking the
        // address of a tracked pointer defeats tracking -> poison it.
        if (r->var != nullptr && IsPointer(e)) Bind(env, r->var, {0, true});
        return {};
      }
      default:
        return {0, true};
    }
  }

  Prov ProvOf(const Expr* e, Env& env) {
    if (e == nullptr) return {};
    switch (e->kind) {
      case ExprKind::kDeclRef: {
        const auto* r = e->As<DeclRefExpr>();
        if (r->var != nullptr && r->var->slot >= 0 && env[r->var->slot])
          return *env[r->var->slot];
        return IsPointer(e) ? Prov{0, true} : Prov{};
      }
      case ExprKind::kUnary: {
        const auto* u = e->As<UnaryExpr>();
        if (u->op == UnaryOp::kAddrOf)
          return ProvOfLvalueBase(u->operand.get(), env);
        if (u->op == UnaryOp::kDeref)
          return IsPointer(e) ? Prov{0, true} : Prov{};
        return ProvOf(u->operand.get(), env);
      }
      case ExprKind::kBinary: {
        const auto* b = e->As<BinaryExpr>();
        return UnionProv(ProvOf(b->lhs.get(), env),
                         ProvOf(b->rhs.get(), env));
      }
      case ExprKind::kAssign:
        return ProvOf(e->As<AssignExpr>()->rhs.get(), env);
      case ExprKind::kConditional: {
        const auto* c = e->As<ConditionalExpr>();
        return UnionProv(ProvOf(c->then_expr.get(), env),
                         ProvOf(c->else_expr.get(), env));
      }
      case ExprKind::kParen:
        return ProvOf(e->As<ParenExpr>()->inner.get(), env);
      case ExprKind::kCast:
        return ProvOf(e->As<CastExpr>()->operand.get(), env);
      case ExprKind::kIndex:
      case ExprKind::kMember:
      case ExprKind::kCall:
        // Pointer values produced by a memory load or a call are
        // unattributable.
        return IsPointer(e) ? Prov{0, true} : Prov{};
      default:
        return {};
    }
  }

  /// Scan `e` in store position. `load_too` for compound assigns and
  /// increments, which read-modify-write the location.
  void ScanLvalue(const Expr* e, Env& env, bool load_too) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::kIndex: {
        const auto* i = e->As<IndexExpr>();
        ScanExpr(i->index.get(), env);
        if (IsPointer(i->base.get())) {
          ScanExpr(i->base.get(), env);
          Record(i->base.get(), env, load_too, /*store=*/true);
        } else {
          // Element of an aggregate lvalue (local array or p->arr[i]).
          ScanLvalue(i->base.get(), env, load_too);
        }
        return;
      }
      case ExprKind::kMember: {
        const auto* m = e->As<MemberExpr>();
        if (m->is_arrow) {
          ScanExpr(m->base.get(), env);
          Record(m->base.get(), env, load_too, /*store=*/true);
        } else {
          ScanLvalue(m->base.get(), env, load_too);
        }
        return;
      }
      case ExprKind::kUnary: {
        const auto* u = e->As<UnaryExpr>();
        if (u->op == UnaryOp::kDeref) {
          ScanExpr(u->operand.get(), env);
          Record(u->operand.get(), env, load_too, /*store=*/true);
          return;
        }
        ScanLvalue(u->operand.get(), env, load_too);
        return;
      }
      case ExprKind::kParen:
        ScanLvalue(e->As<ParenExpr>()->inner.get(), env, load_too);
        return;
      case ExprKind::kCast:
        ScanLvalue(e->As<CastExpr>()->operand.get(), env, load_too);
        return;
      case ExprKind::kDeclRef:
        return;  // plain local: no memory traffic
      default:
        ScanExpr(e, env);
        return;
    }
  }

  /// Strip parens/casts down to a DeclRef, or null.
  static const DeclRefExpr* AsDeclRef(const Expr* e) {
    while (e != nullptr) {
      if (e->kind == ExprKind::kDeclRef) return e->As<DeclRefExpr>();
      if (e->kind == ExprKind::kParen)
        e = e->As<ParenExpr>()->inner.get();
      else if (e->kind == ExprKind::kCast)
        e = e->As<CastExpr>()->operand.get();
      else
        return nullptr;
    }
    return nullptr;
  }

  void ScanExpr(const Expr* e, Env& env) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::kAssign: {
        const auto* a = e->As<AssignExpr>();
        ScanExpr(a->rhs.get(), env);
        if (const DeclRefExpr* r = AsDeclRef(a->lhs.get());
            r != nullptr && r->var != nullptr && IsPointer(a->lhs.get())) {
          // Pointer reseated: fold the source's provenance into the var.
          Bind(env, r->var, a->compound ? Prov{0, true}
                                        : ProvOf(a->rhs.get(), env));
          return;
        }
        ScanLvalue(a->lhs.get(), env, /*load_too=*/a->compound);
        return;
      }
      case ExprKind::kUnary: {
        const auto* u = e->As<UnaryExpr>();
        switch (u->op) {
          case UnaryOp::kDeref:
            ScanExpr(u->operand.get(), env);
            Record(u->operand.get(), env, /*load=*/true, /*store=*/false);
            return;
          case UnaryOp::kPreInc:
          case UnaryOp::kPreDec:
          case UnaryOp::kPostInc:
          case UnaryOp::kPostDec:
            if (AsDeclRef(u->operand.get()) == nullptr)
              ScanLvalue(u->operand.get(), env, /*load_too=*/true);
            else
              ScanExpr(u->operand.get(), env);
            return;
          case UnaryOp::kAddrOf:
            (void)ProvOfLvalueBase(u->operand.get(), env);  // escape check
            return;
          default:
            ScanExpr(u->operand.get(), env);
            return;
        }
      }
      case ExprKind::kBinary: {
        const auto* b = e->As<BinaryExpr>();
        ScanExpr(b->lhs.get(), env);
        ScanExpr(b->rhs.get(), env);
        return;
      }
      case ExprKind::kConditional: {
        const auto* c = e->As<ConditionalExpr>();
        ScanExpr(c->cond.get(), env);
        ScanExpr(c->then_expr.get(), env);
        ScanExpr(c->else_expr.get(), env);
        return;
      }
      case ExprKind::kIndex: {
        const auto* i = e->As<IndexExpr>();
        ScanExpr(i->base.get(), env);
        ScanExpr(i->index.get(), env);
        if (IsPointer(i->base.get()))
          Record(i->base.get(), env, /*load=*/true, /*store=*/false);
        return;
      }
      case ExprKind::kMember: {
        const auto* m = e->As<MemberExpr>();
        ScanExpr(m->base.get(), env);
        if (m->is_arrow)
          Record(m->base.get(), env, /*load=*/true, /*store=*/false);
        return;
      }
      case ExprKind::kCall: {
        const auto* c = e->As<CallExpr>();
        for (const auto& a : c->args) ScanExpr(a.get(), env);
        const DeclRefExpr* ref = AsDeclRef(c->callee.get());
        const FunctionDecl* fn =
            ref != nullptr && ref->function != nullptr &&
                    ref->function->body != nullptr
                ? ref->function
                : nullptr;
        if (fn != nullptr) {
          if (record_) {
            std::vector<Prov> callee_params(fn->params.size());
            for (size_t i = 0; i < fn->params.size() && i < c->args.size();
                 ++i)
              callee_params[i] = ProvOf(c->args[i].get(), env);
            ScanFunction(fn, std::move(callee_params));
          }
          return;
        }
        // Atomics serialize the launch: EvalAtomic's read-modify-write
        // would otherwise interleave by worker scheduling.
        const lang::BuiltinRef& b = c->builtin();
        if (b && b.info->cls == lang::BuiltinClass::kAtomic)
          sum_.uses_atomics = true;
        if (record_ && b.op() == Op::kWriteImage)
          sum_.unknown_store = true;
        // Builtins taking pointers (vload/vstore, atomics, ...) may both
        // read and write through them.
        for (const auto& a : c->args)
          if (IsPointer(a.get()))
            Record(a.get(), env, /*load=*/true, /*store=*/true);
        return;
      }
      case ExprKind::kParen:
        ScanExpr(e->As<ParenExpr>()->inner.get(), env);
        return;
      case ExprKind::kCast:
        ScanExpr(e->As<CastExpr>()->operand.get(), env);
        return;
      case ExprKind::kInitList:
        for (const auto& el : e->As<InitListExpr>()->elems)
          ScanExpr(el.get(), env);
        return;
      case ExprKind::kVectorLit:
        for (const auto& el : e->As<VectorLitExpr>()->elems)
          ScanExpr(el.get(), env);
        return;
      case ExprKind::kSizeof:
        return;  // unevaluated operand
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kDeclRef:
      case ExprKind::kStringLit:
        return;
    }
  }

  void ScanStmt(const Stmt* s, Env& env) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::kCompound:
        for (const auto& st : s->As<CompoundStmt>()->body)
          ScanStmt(st.get(), env);
        return;
      case StmtKind::kDecl:
        for (const auto& v : s->As<DeclStmt>()->vars) {
          ScanExpr(v->init.get(), env);
          if (v->type != nullptr && v->type->is_pointer())
            Bind(env, v.get(), ProvOf(v->init.get(), env));
        }
        return;
      case StmtKind::kExpr:
        ScanExpr(s->As<ExprStmt>()->expr.get(), env);
        return;
      case StmtKind::kIf: {
        const auto* i = s->As<IfStmt>();
        ScanExpr(i->cond.get(), env);
        ScanStmt(i->then_stmt.get(), env);
        ScanStmt(i->else_stmt.get(), env);
        return;
      }
      case StmtKind::kFor: {
        const auto* f = s->As<ForStmt>();
        ScanStmt(f->init.get(), env);
        ScanExpr(f->cond.get(), env);
        ScanExpr(f->step.get(), env);
        ScanStmt(f->body.get(), env);
        return;
      }
      case StmtKind::kWhile: {
        const auto* w = s->As<WhileStmt>();
        ScanExpr(w->cond.get(), env);
        ScanStmt(w->body.get(), env);
        return;
      }
      case StmtKind::kDo: {
        const auto* d = s->As<lang::DoStmt>();
        ScanStmt(d->body.get(), env);
        ScanExpr(d->cond.get(), env);
        return;
      }
      case StmtKind::kReturn:
        ScanExpr(s->As<ReturnStmt>()->value.get(), env);
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
      case StmtKind::kEmpty:
        return;
    }
  }
};

GlobalAccessSummary AnalyzeKernelGlobalAccesses(const FunctionDecl* kernel) {
  return HazardScanner().Analyze(kernel);
}

/// Field-wise merge of a block's counter delta into the device totals.
/// Integer adds commute, but the reduction still runs in canonical block
/// order so a future non-commutative counter cannot silently diverge.
void AccumulateStats(simgpu::DeviceStats& into,
                     const simgpu::DeviceStats& d) {
  into.kernels_launched += d.kernels_launched;
  into.work_items_executed += d.work_items_executed;
  into.global_accesses += d.global_accesses;
  into.shared_accesses += d.shared_accesses;
  into.shared_bank_words += d.shared_bank_words;
  into.constant_accesses += d.constant_accesses;
  into.image_accesses += d.image_accesses;
  into.atomics += d.atomics;
  into.barriers += d.barriers;
  into.host_to_device_bytes += d.host_to_device_bytes;
  into.device_to_host_bytes += d.device_to_host_bytes;
  into.device_to_device_bytes += d.device_to_device_bytes;
  into.api_calls += d.api_calls;
  into.ops_executed += d.ops_executed;
}

std::atomic<int> g_worker_override{0};

}  // namespace

int WorkerCount() {
  int pinned = g_worker_override.load(std::memory_order_relaxed);
  if (pinned > 0) return pinned;
  static const int from_env = ResolveWorkerCountFromEnv();
  return from_env;
}

void SetWorkerCount(int workers) {
  if (workers > simgpu::VirtualMemory::kMaxWorkerSlots)
    workers = simgpu::VirtualMemory::kMaxWorkerSlots;
  g_worker_override.store(workers < 0 ? 0 : workers,
                          std::memory_order_relaxed);
}

StatusOr<LaunchResult> LaunchKernel(simgpu::Device& device, Module& module,
                                    const std::string& kernel_name,
                                    const LaunchConfig& config,
                                    std::span<const KernelArg> args) {
  const FunctionDecl* kernel = module.FindKernel(kernel_name);
  if (kernel == nullptr)
    return NotFoundError("no kernel named '" + kernel_name + "' in module");
  if (!module.loaded() || module.loaded_device() != &device)
    return FailedPreconditionError("module is not loaded on this device");
  const auto& prof = device.profile();
  if (config.block.Count() == 0 || config.grid.Count() == 0)
    return InvalidArgumentError("empty grid or block");
  if (config.block.Count() > static_cast<uint64_t>(prof.max_threads_per_block))
    return InvalidArgumentError(
        StrFormat("block size %llu exceeds device limit %d",
                  static_cast<unsigned long long>(config.block.Count()),
                  prof.max_threads_per_block));
  if (args.size() != kernel->params.size())
    return InvalidArgumentError(StrFormat(
        "kernel '%s' expects %zu arguments, got %zu", kernel_name.c_str(),
        kernel->params.size(), args.size()));

  LaunchState L;
  L.device = &device;
  L.module = &module;
  L.kernel = kernel;
  L.cfg = config;
  L.dialect = module.dialect();

  // ---- shared-memory layout: static __local vars (laid out by sema),
  // then dynamic-local arguments (OpenCL §4.1), then the CUDA extern
  // __shared__ area. ----
  size_t offset = kernel->static_shared_bytes;
  auto align_to = [&](size_t a) { offset = (offset + a - 1) / a * a; };

  // ---- bind arguments ----
  L.arg_values.resize(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const VarDecl* p = kernel->params[i].get();
    const KernelArg& a = args[i];
    if (a.kind == KernelArg::Kind::kLocalAlloc) {
      if (!p->type->is_pointer() ||
          p->type->pointee_space() != AddressSpace::kLocal)
        return InvalidArgumentError(StrFormat(
            "argument %zu: dynamic local allocation bound to a non-__local "
            "parameter of kernel '%s'",
            i, kernel_name.c_str()));
      align_to(16);
      uint64_t va = device.vm().shared_base() + offset;
      offset += a.local_size;
      L.arg_values[i] = Value::Pointer(va, p->type);
      L.local_arg_indices.push_back(i);
    } else {
      size_t want = p->type->ByteSize();
      if (p->type->is_named()) want = a.bytes.size();  // template param
      if (a.bytes.size() < want)
        return InvalidArgumentError(StrFormat(
            "argument %zu: %zu bytes provided, parameter '%s' needs %zu",
            i, a.bytes.size(), p->name.c_str(), want));
      Type::Ptr t = p->type->is_named() ? Type::IntTy() : p->type;
      BRIDGECL_ASSIGN_OR_RETURN(L.arg_values[i],
                                DecodeValue(t, a.bytes.data()));
    }
  }
  align_to(16);
  L.dynamic_shared_va = device.vm().shared_base() + offset;
  L.shared_total = offset + config.dynamic_shared_bytes;
  if (L.shared_total > prof.shared_mem_per_block)
    return ResourceExhaustedError(StrFormat(
        "kernel '%s' needs %zu bytes of shared memory per block; device "
        "provides %zu",
        kernel_name.c_str(), L.shared_total, prof.shared_mem_per_block));

  // ---- execute blocks on the worker pool ----
  // Blocks are independent in this model (no cross-block synchronization
  // primitive is exposed), so the grid is claimed block-by-block from an
  // atomic counter by `workers` host threads. Each worker executes into a
  // private VM slot and a private BlockResult; the reduction below then
  // replays the serial engine's bookkeeping in canonical block order, so
  // stats, cycle totals (flat FP fold), timestamps and traces are
  // bit-identical for every worker count.
  uint64_t block_items = config.block.Count();
  uint64_t total_blocks = config.grid.Count();
  int workers = WorkerCount();
  // Serialize when execution order is observable: an armed fault plan
  // counts per-site consults in execution order; atomics are modeled as
  // plain read-modify-writes; and a launch whose blocks read a buffer
  // other blocks write (in-place stencils like srad2, wavefronts like
  // nw) sees the serial engine's canonical block order through memory.
  if (workers > 1) {
    GlobalAccessSummary acc = AnalyzeKernelGlobalAccesses(kernel);
    if (std::getenv("BRIDGECL_DEBUG_HAZARD") != nullptr)
      fprintf(stderr,
              "[hazard] %s load=%llx store=%llx uload=%d ustore=%d atom=%d\n",
              kernel_name.c_str(),
              (unsigned long long)acc.load_params,
              (unsigned long long)acc.store_params, acc.unknown_load,
              acc.unknown_store, acc.uses_atomics);
    bool hazard = acc.uses_atomics || acc.unknown_store ||
                  (acc.unknown_load && acc.store_params != 0);
    if (!hazard && acc.store_params != 0) {
      // Attribute each accessed param to its underlying allocation; a
      // buffer both stored and loaded (same param, or two aliasing
      // params), or stored through two params, is a cross-block hazard.
      std::map<uint64_t, std::pair<int, int>> per_alloc;  // {stores, loads}
      for (size_t i = 0; i < L.arg_values.size() && i < 64; ++i) {
        uint64_t bit = 1ull << i;
        if (((acc.load_params | acc.store_params) & bit) == 0) continue;
        uint64_t va = L.arg_values[i].AsVa();
        uint64_t key = device.vm().GlobalAllocationBaseOf(va);
        if (key == 0) key = va;
        auto& [stores, loads] = per_alloc[key];
        if (acc.store_params & bit) ++stores;
        if (acc.load_params & bit) ++loads;
      }
      for (const auto& [base, sl] : per_alloc)
        if (sl.first > 0 && (sl.second > 0 || sl.first > 1)) hazard = true;
    }
    if (hazard) workers = 1;
  }
  if (device.faults().armed()) workers = 1;
  if (static_cast<uint64_t>(workers) > total_blocks)
    workers = static_cast<int>(total_blocks);
  device.vm().EnsureWorkerSlots(workers);

  struct BlockResult {
    simgpu::DeviceStats delta;
    std::vector<double> item_cycles;  // canonical per-item fold order
    Status status;
    bool executed = false;
  };
  std::vector<BlockResult> results(total_blocks);
  std::atomic<uint64_t> next_block{0};
  std::atomic<uint64_t> first_error_block{std::numeric_limits<uint64_t>::max()};

  auto run_worker = [&](int w) {
    // Per-worker launch state: same layout, rebased into VM slot `w`.
    LaunchState W = L;
    W.slot = w;
    uint64_t delta = device.vm().shared_base(w) - device.vm().shared_base(0);
    if (delta != 0) {
      W.dynamic_shared_va += delta;
      for (size_t ai : W.local_arg_indices)
        W.arg_values[ai] = Value::Pointer(W.arg_values[ai].AsVa() + delta,
                                          kernel->params[ai]->type);
    }
    for (;;) {
      uint64_t b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= total_blocks) break;
      // Blocks past an already-failed one will be discarded by the
      // reduction; skip them instead of burning cycles.
      if (b > first_error_block.load(std::memory_order_acquire)) continue;
      BlockResult& r = results[b];
      r.executed = true;
      W.stats = &r.delta;
      // Per-block shared-memory mapping is an allocation event for the
      // fault plan (FaultSite::kSharedAlloc); only reachable serially.
      if (device.faults().armed()) {
        Status fs =
            device.faults().OnSharedAlloc(std::max<size_t>(W.shared_total, 1));
        if (!fs.ok()) {
          r.status = std::move(fs);
          uint64_t prev = first_error_block.load(std::memory_order_relaxed);
          while (b < prev && !first_error_block.compare_exchange_weak(
                                 prev, b, std::memory_order_release,
                                 std::memory_order_relaxed)) {
          }
          continue;
        }
      }
      device.vm().MapSharedSlot(w, std::max<size_t>(W.shared_total, 1));
      device.vm().MapPrivateSlot(
          w, static_cast<size_t>(block_items) * kPrivateBytesPerItem);
      simgpu::FiberGroup group(kFiberStackBytes);
      W.group = &group;
      W.group_id = Dim3(static_cast<uint32_t>(b % config.grid.x),
                        static_cast<uint32_t>((b / config.grid.x) %
                                              config.grid.y),
                        static_cast<uint32_t>(b / (uint64_t{config.grid.x} *
                                                   config.grid.y)));
      std::vector<std::unique_ptr<Evaluator>> evals(block_items);
      Status st =
          group.Run(static_cast<int>(block_items), [&](int idx) -> Status {
            Dim3 lid(idx % config.block.x,
                     (idx / config.block.x) % config.block.y,
                     idx / (config.block.x * config.block.y));
            evals[idx] = std::make_unique<Evaluator>(W, lid, idx);
            return evals[idx]->Run();
          });
      r.item_cycles.assign(block_items, 0.0);
      for (uint64_t i = 0; i < block_items; ++i)
        if (evals[i]) r.item_cycles[i] = evals[i]->TakeCycles();
      if (!st.ok()) {
        r.status = std::move(st);
        uint64_t prev = first_error_block.load(std::memory_order_relaxed);
        while (b < prev &&
               !first_error_block.compare_exchange_weak(
                   prev, b, std::memory_order_release,
                   std::memory_order_relaxed)) {
        }
      }
    }
  };
  if (std::getenv("BRIDGECL_DEBUG_HAZARD") != nullptr)
    fprintf(stderr, "[hazard] %s workers=%d blocks=%llu\n",
            kernel_name.c_str(), workers,
            (unsigned long long)total_blocks);
  WorkerPool::Instance().Run(workers, run_worker);

  // ---- canonical-order reduction ----
  // Fold block results exactly as the serial loop would have: stats and
  // per-item cycle contributions for blocks 0..b accumulate before block
  // b's error (if any) is returned, matching the serial engine's
  // early-return with partial stats.
  double total_cycles = 0.0;
  uint64_t err_block = first_error_block.load(std::memory_order_acquire);
  for (uint64_t b = 0; b < total_blocks; ++b) {
    if (b > err_block) break;
    BlockResult& r = results[b];
    if (!r.executed) break;  // unclaimed tail after an error
    AccumulateStats(device.stats(), r.delta);
    for (double c : r.item_cycles) total_cycles += c;
    if (!r.status.ok()) return std::move(r.status);
  }

  int regs = module.RegistersFor(kernel);
  uint64_t total_items = config.grid.Count() * block_items;
  double before = device.now_us();
  device.ChargeKernel(total_cycles, regs, total_items);
  LaunchResult result;
  result.total_cycles = total_cycles;
  result.occupancy = device.OccupancyFor(regs);
  result.work_items = total_items;
  result.kernel_time_us = device.now_us() - before;
  return result;
}

}  // namespace bridgecl::interp
