#include "lang/sema.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lang/builtins.h"
#include "support/strings.h"

namespace bridgecl::lang {
namespace {

int ScalarRank(ScalarKind k) {
  switch (k) {
    case ScalarKind::kBool: return 1;
    case ScalarKind::kChar:
    case ScalarKind::kUChar: return 2;
    case ScalarKind::kShort:
    case ScalarKind::kUShort: return 3;
    case ScalarKind::kInt: return 4;
    case ScalarKind::kUInt: return 5;
    case ScalarKind::kLong:
    case ScalarKind::kLongLong: return 6;
    case ScalarKind::kULong:
    case ScalarKind::kULongLong:
    case ScalarKind::kSizeT: return 7;
    case ScalarKind::kFloat: return 8;
    case ScalarKind::kDouble: return 9;
    default: return 0;
  }
}

class Sema {
 public:
  Sema(TranslationUnit& tu, Dialect dialect, DiagnosticEngine& diags)
      : tu_(tu), dialect_(dialect), diags_(diags) {}

  Status Run();

 private:
  // Scope stack of variable bindings.
  struct Scope {
    std::unordered_map<std::string, VarDecl*> vars;
  };

  void Push() { scopes_.emplace_back(); }
  void Pop() { scopes_.pop_back(); }
  VarDecl* Lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->vars.find(name);
      if (f != it->vars.end()) return f->second;
    }
    return nullptr;
  }
  void Bind(VarDecl* v) { scopes_.back().vars[v->name] = v; }

  Status Err(SourceLoc loc, std::string msg) {
    diags_.Error(loc, msg);
    return InvalidArgumentError(std::move(msg));
  }

  /// Dialect type rules (§3.6): CUDA has no 8-/16-component vectors;
  /// OpenCL has no 1-component vectors and no longlong scalars/vectors.
  Status CheckTypeAllowed(SourceLoc loc, const Type::Ptr& t) {
    if (!t) return OkStatus();
    switch (t->kind()) {
      case TypeKind::kVector: {
        int w = t->vector_width();
        if (dialect_ == Dialect::kCUDA && (w == 8 || w == 16))
          return Err(loc, StrFormat("CUDA does not support %d-component "
                                    "vector types",
                                    w));
        if (dialect_ == Dialect::kOpenCL && w == 1)
          return Err(loc, "OpenCL does not support one-component vector "
                          "types");
        [[fallthrough]];
      }
      case TypeKind::kScalar: {
        ScalarKind k = t->scalar_kind();
        if (dialect_ == Dialect::kOpenCL &&
            (k == ScalarKind::kLongLong || k == ScalarKind::kULongLong))
          return Err(loc, "OpenCL does not support the longlong type");
        return OkStatus();
      }
      case TypeKind::kPointer:
        return CheckTypeAllowed(loc, t->pointee());
      case TypeKind::kArray:
        return CheckTypeAllowed(loc, t->element());
      case TypeKind::kStruct: {
        for (const StructField& f : t->struct_decl()->fields)
          BRIDGECL_RETURN_IF_ERROR(CheckTypeAllowed(loc, f.type));
        return OkStatus();
      }
      case TypeKind::kTexture:
        if (dialect_ == Dialect::kOpenCL)
          return Err(loc, "texture references are a CUDA feature");
        return OkStatus();
      default:
        return OkStatus();
    }
  }

  Status LayoutStruct(StructDecl* sd);
  Status AnalyzeFunction(FunctionDecl* fn);
  Status AnalyzeStmt(Stmt* s);
  Status AnalyzeVarDecl(VarDecl* v);
  Status AnalyzeExpr(Expr* e);
  void InferKernelParamSpaces(FunctionDecl* fn);
  void EstimateRegisters(FunctionDecl* fn);

  TranslationUnit& tu_;
  Dialect dialect_;
  DiagnosticEngine& diags_;
  std::vector<Scope> scopes_;
  FunctionDecl* current_fn_ = nullptr;
  std::unordered_map<std::string, TextureRefDecl*> textures_;
};

Status Sema::LayoutStruct(StructDecl* sd) {
  size_t offset = 0;
  size_t align = 1;
  for (StructField& f : sd->fields) {
    if (!f.type) return Err(sd->loc, "struct field without type");
    size_t a = f.type->Alignment();
    size_t sz = f.type->ByteSize();
    if (a == 0) a = 1;
    offset = (offset + a - 1) / a * a;
    f.offset = offset;
    offset += sz;
    if (a > align) align = a;
  }
  sd->alignment = align;
  sd->byte_size = (offset + align - 1) / align * align;
  if (sd->byte_size == 0) sd->byte_size = align;
  return OkStatus();
}

Status Sema::Run() {
  Push();  // file scope
  // Pass 1: layout structs, bind globals, collect textures.
  for (auto& d : tu_.decls) {
    switch (d->kind) {
      case DeclKind::kStruct:
        BRIDGECL_RETURN_IF_ERROR(LayoutStruct(d->As<StructDecl>()));
        break;
      case DeclKind::kVar: {
        auto* v = d->As<VarDecl>();
        BRIDGECL_RETURN_IF_ERROR(CheckTypeAllowed(v->loc, v->type));
        // File-scope variables without an explicit space: in OpenCL only
        // __constant file-scope variables are legal; in CUDA a plain
        // file-scope variable is host-side (we reject it in device code).
        if (v->quals.space == AddressSpace::kPrivate &&
            !v->quals.space_explicit) {
          return Err(v->loc,
                     "file-scope variable '" + v->name +
                         "' needs an address-space qualifier in device code");
        }
        // Unsized arrays are only legal as `extern __shared__` (CUDA
        // dynamic shared memory); anywhere else the size is required.
        if (v->type && v->type->is_array() && v->type->array_extent() == 0 &&
            !(v->quals.is_extern &&
              v->quals.space == AddressSpace::kLocal)) {
          return Err(v->loc, "array '" + v->name + "' needs a size");
        }
        // Table 1: OpenCL has no static global-memory allocation — only
        // __constant program-scope variables are legal (§4.3).
        if (dialect_ == Dialect::kOpenCL &&
            v->quals.space != AddressSpace::kConstant) {
          return Err(v->loc,
                     "OpenCL program-scope variable '" + v->name +
                         "' must be in the __constant address space");
        }
        Bind(v);
        if (v->init) BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(v->init.get()));
        break;
      }
      case DeclKind::kTextureRef:
        textures_[d->name] = d->As<TextureRefDecl>();
        break;
      default:
        break;
    }
  }
  // Pass 2: function bodies.
  for (auto& d : tu_.decls) {
    if (d->kind != DeclKind::kFunction) continue;
    BRIDGECL_RETURN_IF_ERROR(AnalyzeFunction(d->As<FunctionDecl>()));
  }
  Pop();
  return OkStatus();
}

void Sema::InferKernelParamSpaces(FunctionDecl* fn) {
  // CUDA kernels receive raw pointers; the paper's CU→CL translator "adds
  // an appropriate address space qualifier to a pointer using type
  // information". Default inference: kernel pointer params point to global
  // memory unless explicitly qualified.
  if (dialect_ != Dialect::kCUDA || !fn->quals.is_kernel) return;
  for (auto& p : fn->params) {
    if (p->type && p->type->is_pointer() &&
        p->type->pointee_space() == AddressSpace::kPrivate &&
        !p->quals.space_explicit) {
      p->type = Type::Pointer(p->type->pointee(), AddressSpace::kGlobal);
    }
  }
}

void Sema::EstimateRegisters(FunctionDecl* fn) {
  // Heuristic register-pressure model: a base cost plus the function's
  // private scalars. Drives the occupancy computation in simgpu. Kernels
  // can override via a `__launch_bounds__`-style table at module build
  // time; this estimate is the default.
  int params = static_cast<int>(fn->params.size());
  int regs = 10 + 2 * (fn->frame_slots - params) + params;
  fn->register_estimate = regs;
}

Status Sema::AnalyzeFunction(FunctionDecl* fn) {
  current_fn_ = fn;
  fn->frame_slots = 0;
  fn->static_shared_bytes = 0;
  InferKernelParamSpaces(fn);
  Push();
  for (auto& p : fn->params) {
    p->is_param = true;
    p->slot = fn->frame_slots++;
    BRIDGECL_RETURN_IF_ERROR(CheckTypeAllowed(p->loc, p->type));
    Bind(p.get());
  }
  if (fn->body) BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(fn->body.get()));
  Pop();
  EstimateRegisters(fn);
  current_fn_ = nullptr;
  return OkStatus();
}

Status Sema::AnalyzeVarDecl(VarDecl* v) {
  v->slot = current_fn_->frame_slots++;
  BRIDGECL_RETURN_IF_ERROR(CheckTypeAllowed(v->loc, v->type));
  if (v->init) {
    BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(v->init.get()));
    // Propagate pointee address space into unqualified pointer locals, so
    // `int* p = gptr;` inherits __global from `gptr` (needed by CU→CL).
    if (v->type && v->type->is_pointer() &&
        v->type->pointee_space() == AddressSpace::kPrivate &&
        v->init->type && v->init->type->is_pointer() &&
        v->init->type->pointee_space() != AddressSpace::kPrivate) {
      v->type =
          Type::Pointer(v->type->pointee(), v->init->type->pointee_space());
    }
  }
  // A kernel's static shared variables are laid out in declaration order,
  // each at its natural alignment (dynamic allocations follow the total).
  if (current_fn_->quals.is_kernel && v->quals.space == AddressSpace::kLocal &&
      !v->quals.is_extern) {
    size_t a = std::max<size_t>(v->type->Alignment(), 1);
    size_t& top = current_fn_->static_shared_bytes;
    top = (top + a - 1) / a * a;
    v->shared_offset = static_cast<int64_t>(top);
    top += v->type->ByteSize();
  }
  Bind(v);
  return OkStatus();
}

Status Sema::AnalyzeStmt(Stmt* s) {
  switch (s->kind) {
    case StmtKind::kCompound: {
      Push();
      for (auto& st : s->As<CompoundStmt>()->body)
        BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(st.get()));
      Pop();
      return OkStatus();
    }
    case StmtKind::kDecl: {
      for (auto& v : s->As<DeclStmt>()->vars)
        BRIDGECL_RETURN_IF_ERROR(AnalyzeVarDecl(v.get()));
      return OkStatus();
    }
    case StmtKind::kExpr:
      return AnalyzeExpr(s->As<ExprStmt>()->expr.get());
    case StmtKind::kIf: {
      auto* i = s->As<IfStmt>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(i->cond.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(i->then_stmt.get()));
      if (i->else_stmt) BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(i->else_stmt.get()));
      return OkStatus();
    }
    case StmtKind::kFor: {
      auto* f = s->As<ForStmt>();
      Push();
      if (f->init) BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(f->init.get()));
      if (f->cond) BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(f->cond.get()));
      if (f->step) BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(f->step.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(f->body.get()));
      Pop();
      return OkStatus();
    }
    case StmtKind::kWhile: {
      auto* w = s->As<WhileStmt>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(w->cond.get()));
      return AnalyzeStmt(w->body.get());
    }
    case StmtKind::kDo: {
      auto* d = s->As<DoStmt>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeStmt(d->body.get()));
      return AnalyzeExpr(d->cond.get());
    }
    case StmtKind::kReturn: {
      auto* r = s->As<ReturnStmt>();
      if (r->value) return AnalyzeExpr(r->value.get());
      return OkStatus();
    }
    case StmtKind::kBreak:
    case StmtKind::kContinue:
    case StmtKind::kEmpty:
      return OkStatus();
  }
  return OkStatus();
}

Status Sema::AnalyzeExpr(Expr* e) {
  switch (e->kind) {
    case ExprKind::kIntLit: {
      auto* i = e->As<IntLitExpr>();
      if (i->is_long)
        e->type = Type::Scalar(i->is_unsigned ? ScalarKind::kULong
                                              : ScalarKind::kLong);
      else
        e->type =
            Type::Scalar(i->is_unsigned ? ScalarKind::kUInt : ScalarKind::kInt);
      return OkStatus();
    }
    case ExprKind::kFloatLit: {
      auto* f = e->As<FloatLitExpr>();
      e->type = Type::Scalar(f->is_float ? ScalarKind::kFloat
                                         : ScalarKind::kDouble);
      return OkStatus();
    }
    case ExprKind::kStringLit:
      e->type = Type::Pointer(Type::Scalar(ScalarKind::kChar),
                              AddressSpace::kConstant);
      return OkStatus();
    case ExprKind::kDeclRef: {
      auto* r = e->As<DeclRefExpr>();
      if (VarDecl* v = Lookup(r->name)) {
        r->var = v;
        // Arrays decay to a pointer carrying the variable's address space
        // (needed by the CUâCL pointer-space inference, Â§3.6).
        if (v->type && v->type->is_array())
          e->type = Type::Pointer(v->type->element(), v->quals.space);
        else
          e->type = v->type;
        return OkStatus();
      }
      if (auto it = textures_.find(r->name); it != textures_.end()) {
        e->type = Type::Texture(it->second->elem, it->second->elem_width,
                                it->second->dims);
        return OkStatus();
      }
      if (FunctionDecl* fn = tu_.FindFunction(r->name)) {
        r->function = fn;
        e->type = fn->return_type;
        return OkStatus();
      }
      r->builtin = FindBuiltinFunction(r->name, dialect_);
      if (!r->builtin) r->builtin = FindBuiltinVariable(r->name, dialect_);
      if (r->builtin) {
        e->type = BuiltinResultType(r->builtin, {});
        return OkStatus();
      }
      return Err(e->loc, "use of undeclared identifier '" + r->name + "'");
    }
    case ExprKind::kUnary: {
      auto* u = e->As<UnaryExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(u->operand.get()));
      Type::Ptr t = u->operand->type;
      switch (u->op) {
        case UnaryOp::kDeref:
          if (t && t->is_pointer())
            e->type = t->pointee();
          else if (t && t->is_array())
            e->type = t->element();
          else
            return Err(e->loc, "cannot dereference non-pointer");
          break;
        case UnaryOp::kAddrOf: {
          AddressSpace sp = AddressSpace::kPrivate;
          if (u->operand->kind == ExprKind::kDeclRef &&
              u->operand->As<DeclRefExpr>()->var) {
            VarDecl* v = u->operand->As<DeclRefExpr>()->var;
            sp = v->quals.space;
            v->address_taken = true;
          }
          e->type = Type::Pointer(t ? t : Type::IntTy(), sp);
          break;
        }
        case UnaryOp::kNot:
          e->type = Type::IntTy();
          break;
        default:
          e->type = t;
          break;
      }
      return OkStatus();
    }
    case ExprKind::kBinary: {
      auto* b = e->As<BinaryExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(b->lhs.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(b->rhs.get()));
      Type::Ptr lt = b->lhs->type, rt = b->rhs->type;
      switch (b->op) {
        case BinaryOp::kEQ:
        case BinaryOp::kNE:
        case BinaryOp::kLT:
        case BinaryOp::kGT:
        case BinaryOp::kLE:
        case BinaryOp::kGE:
        case BinaryOp::kLAnd:
        case BinaryOp::kLOr:
          e->type = Type::IntTy();
          break;
        case BinaryOp::kComma:
          e->type = rt;
          break;
        default: {
          // Pointer arithmetic keeps the pointer type.
          if (lt && (lt->is_pointer() || lt->is_array()) &&
              (b->op == BinaryOp::kAdd || b->op == BinaryOp::kSub)) {
            e->type = lt->is_array()
                          ? Type::Pointer(lt->element(), AddressSpace::kPrivate)
                          : lt;
          } else if (rt && rt->is_pointer() && b->op == BinaryOp::kAdd) {
            e->type = rt;
          } else {
            e->type = ArithmeticResultType(lt, rt);
          }
          break;
        }
      }
      return OkStatus();
    }
    case ExprKind::kAssign: {
      auto* a = e->As<AssignExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(a->lhs.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(a->rhs.get()));
      e->type = a->lhs->type;
      return OkStatus();
    }
    case ExprKind::kConditional: {
      auto* c = e->As<ConditionalExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(c->cond.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(c->then_expr.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(c->else_expr.get()));
      e->type = c->then_expr->type;
      return OkStatus();
    }
    case ExprKind::kCall: {
      auto* c = e->As<CallExpr>();
      std::vector<Type::Ptr> arg_types;
      for (auto& a : c->args) {
        BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(a.get()));
        arg_types.push_back(a->type);
      }
      const std::string& name = c->callee_name();
      if (name.empty())
        return Err(e->loc, "indirect calls (function pointers) are not "
                           "supported in device code");
      auto* ref = c->callee->As<DeclRefExpr>();
      FunctionDecl* fn = tu_.FindFunction(name);
      // A defined function shadows a builtin; a bodiless prototype of a
      // builtin spelling still calls the builtin.
      BuiltinRef b;
      if (fn == nullptr || fn->body == nullptr)
        b = FindBuiltinFunction(name, dialect_);
      if (b) {
        if (auto msg = BuiltinArityError(b, name, c->args.size()))
          return Err(e->loc, *msg);
        ref->builtin = b;
        e->type = BuiltinResultType(b, arg_types);
        c->callee->type = e->type;
        return OkStatus();
      }
      if (fn != nullptr) {
        ref->function = fn;
        Type::Ptr ret = fn->return_type;
        // Template call: the return type may be the template parameter;
        // substitute from explicit type args or the first argument.
        if (!fn->template_params.empty() && ret && ret->is_named()) {
          if (!c->type_args.empty())
            ret = c->type_args[0];
          else if (!arg_types.empty() && arg_types[0])
            ret = arg_types[0];
        }
        e->type = ret ? ret : Type::VoidTy();
        c->callee->type = e->type;
        return OkStatus();
      }
      return Err(e->loc, "call to undeclared function '" + name + "'");
    }
    case ExprKind::kIndex: {
      auto* i = e->As<IndexExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(i->base.get()));
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(i->index.get()));
      Type::Ptr bt = i->base->type;
      if (bt && bt->is_pointer())
        e->type = bt->pointee();
      else if (bt && bt->is_array())
        e->type = bt->element();
      else if (bt && bt->is_vector())
        e->type = Type::Scalar(bt->scalar_kind());
      else
        return Err(e->loc, "subscript on non-pointer type");
      return OkStatus();
    }
    case ExprKind::kMember: {
      auto* m = e->As<MemberExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(m->base.get()));
      Type::Ptr bt = m->base->type;
      if (m->is_arrow) {
        if (!bt || !bt->is_pointer())
          return Err(e->loc, "'->' on non-pointer");
        bt = bt->pointee();
      }
      if (bt && bt->is_vector()) {
        std::vector<int> sw = ResolveSwizzle(m->member, bt->vector_width());
        if (sw.empty())
          return Err(e->loc, "invalid vector component '" + m->member + "'");
        m->is_swizzle = true;
        m->swizzle = sw;
        if (sw.size() == 1)
          e->type = Type::Scalar(bt->scalar_kind());
        else
          e->type = Type::Vector(bt->scalar_kind(), static_cast<int>(sw.size()));
        return OkStatus();
      }
      if (bt && bt->is_struct()) {
        const StructField* f = bt->struct_decl()->FindField(m->member);
        if (!f)
          return Err(e->loc, "no field '" + m->member + "' in struct '" +
                                 bt->struct_decl()->name + "'");
        e->type = f->type;
        return OkStatus();
      }
      return Err(e->loc, "member access on non-aggregate type");
    }
    case ExprKind::kCast: {
      auto* c = e->As<CastExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(c->operand.get()));
      // Propagate pointee space through casts that do not re-qualify.
      Type::Ptr t = c->target;
      if (t && t->is_pointer() &&
          t->pointee_space() == AddressSpace::kPrivate && c->operand->type &&
          c->operand->type->is_pointer() &&
          c->operand->type->pointee_space() != AddressSpace::kPrivate) {
        t = Type::Pointer(t->pointee(), c->operand->type->pointee_space());
        c->target = t;
      }
      e->type = t;
      return OkStatus();
    }
    case ExprKind::kParen: {
      auto* p = e->As<ParenExpr>();
      BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(p->inner.get()));
      e->type = p->inner->type;
      return OkStatus();
    }
    case ExprKind::kInitList: {
      auto* l = e->As<InitListExpr>();
      for (auto& el : l->elems)
        BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(el.get()));
      e->type = nullptr;  // typed by context (declaration)
      return OkStatus();
    }
    case ExprKind::kSizeof: {
      auto* s = e->As<SizeofExpr>();
      if (s->arg_expr) BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(s->arg_expr.get()));
      e->type = Type::SizeTy();
      return OkStatus();
    }
    case ExprKind::kVectorLit: {
      auto* v = e->As<VectorLitExpr>();
      for (auto& el : v->elems)
        BRIDGECL_RETURN_IF_ERROR(AnalyzeExpr(el.get()));
      e->type = v->vec_type;
      return OkStatus();
    }
  }
  return OkStatus();
}

}  // namespace

std::vector<int> ResolveSwizzle(const std::string& member, int width) {
  std::vector<int> out;
  if (member == "lo" || member == "hi" || member == "even" ||
      member == "odd") {
    int half = width / 2;
    if (half == 0) return {};
    for (int i = 0; i < half; ++i) {
      if (member == "lo") out.push_back(i);
      else if (member == "hi") out.push_back(width - half + i);
      else if (member == "even") out.push_back(2 * i);
      else out.push_back(2 * i + 1);
    }
    return out;
  }
  if ((member[0] == 's' || member[0] == 'S') && member.size() > 1) {
    for (size_t i = 1; i < member.size(); ++i) {
      char c = member[i];
      int idx;
      if (c >= '0' && c <= '9') idx = c - '0';
      else if (c >= 'a' && c <= 'f') idx = 10 + c - 'a';
      else if (c >= 'A' && c <= 'F') idx = 10 + c - 'A';
      else return {};
      if (idx >= width) return {};
      out.push_back(idx);
    }
    return out.size() <= 16 ? out : std::vector<int>{};
  }
  // xyzw sequences (up to 4 components).
  if (member.size() > 4) return {};
  for (char c : member) {
    int idx;
    switch (c) {
      case 'x': idx = 0; break;
      case 'y': idx = 1; break;
      case 'z': idx = 2; break;
      case 'w': idx = 3; break;
      default: return {};
    }
    if (idx >= width) return {};
    out.push_back(idx);
  }
  return out;
}

Type::Ptr ArithmeticResultType(const Type::Ptr& a, const Type::Ptr& b) {
  if (!a) return b ? b : Type::IntTy();
  if (!b) return a;
  // Vector op anything: vector wins (scalar broadcasts).
  if (a->is_vector() && b->is_vector()) {
    // Same width assumed; element type by rank.
    ScalarKind k = ScalarRank(a->scalar_kind()) >= ScalarRank(b->scalar_kind())
                       ? a->scalar_kind()
                       : b->scalar_kind();
    return Type::Vector(k, a->vector_width());
  }
  if (a->is_vector()) return a;
  if (b->is_vector()) return b;
  if (!a->is_arithmetic() || !b->is_arithmetic()) return a;
  ScalarKind ka = a->scalar_kind(), kb = b->scalar_kind();
  ScalarKind k = ScalarRank(ka) >= ScalarRank(kb) ? ka : kb;
  // Promote sub-int to int.
  if (ScalarRank(k) < ScalarRank(ScalarKind::kInt)) k = ScalarKind::kInt;
  return Type::Scalar(k);
}

Status Analyze(TranslationUnit& tu, const SemaOptions& opts,
               DiagnosticEngine& diags) {
  Sema s(tu, opts.dialect, diags);
  return s.Run();
}

}  // namespace bridgecl::lang
