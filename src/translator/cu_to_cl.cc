// CUDA → OpenCL device-code translation (§3.4 Figure 3, §3.6, §4, §5).
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "lang/builtins.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/sema.h"
#include "translator/rewrite_util.h"
#include "translator/translate.h"

namespace bridgecl::translator {

using namespace bridgecl::lang;  // NOLINT: rewriters are lang-dense

namespace {

/// atomic_cmpxchg-based emulation of CUDA's wrap-around atomics — an
/// opt-in extension beyond the paper (which classifies them as
/// untranslatable, Table 3 "no corresponding functions").
constexpr char kAtomicEmulationHelpers[] = R"(
uint __cu2cl_atomicInc(volatile __global uint* p, uint limit) {
  uint old;
  uint next;
  do {
    old = *p;
    next = (old >= limit) ? 0u : (old + 1u);
  } while (atomic_cmpxchg((volatile __global uint*)p, old, next) != old);
  return old;
}
uint __cu2cl_atomicDec(volatile __global uint* p, uint limit) {
  uint old;
  uint next;
  do {
    old = *p;
    next = (old == 0u || old > limit) ? limit : (old - 1u);
  } while (atomic_cmpxchg((volatile __global uint*)p, old, next) != old);
  return old;
}
)";

class CuToCl {
 public:
  CuToCl(TranslationUnit& tu, DiagnosticEngine& diags,
         const TranslateOptions& opts)
      : tu_(tu), diags_(diags), opts_(opts) {}

  StatusOr<TranslationResult> Run() {
    // Record original parameter counts before any pass appends parameters.
    FinalizeKernelInfos();
    BRIDGECL_RETURN_IF_ERROR(SpecializeTemplates());
    BRIDGECL_RETURN_IF_ERROR(LowerReferences());
    BRIDGECL_RETURN_IF_ERROR(CheckKernelParams());
    BRIDGECL_RETURN_IF_ERROR(RewriteBuiltinsAndVars());
    BRIDGECL_RETURN_IF_ERROR(LowerOneComponentVectors());
    BRIDGECL_RETURN_IF_ERROR(LowerLongLong());
    BRIDGECL_RETURN_IF_ERROR(RewriteDynamicShared());
    BRIDGECL_RETURN_IF_ERROR(RewriteTextures());
    BRIDGECL_RETURN_IF_ERROR(RewriteStaticSymbols());
    BRIDGECL_RETURN_IF_ERROR(SpecializeFunctionSpaces());
    BRIDGECL_RETURN_IF_ERROR(SplitMultiSpacePointers());
    FinalizeKernelInfos();

    TranslationResult result;
    PrintOptions popts;
    popts.dialect = Dialect::kOpenCL;
    result.source = PrintTranslationUnit(tu_, popts);
    if (used_atomic_emulation_)
      result.source = std::string(kAtomicEmulationHelpers) + result.source;
    result.kernels = std::move(kernels_);
    return result;
  }

 private:
  Status Untranslatable(SourceLoc loc, const std::string& what) {
    diags_.Error(loc, "untranslatable to OpenCL: " + what);
    return UntranslatableError(what);
  }

  KernelTranslationInfo& InfoFor(const FunctionDecl& fn) {
    for (auto& k : kernels_)
      if (k.name == fn.name) return k;
    KernelTranslationInfo info;
    info.name = fn.name;
    info.original_param_count = static_cast<int>(fn.params.size());
    kernels_.push_back(std::move(info));
    return kernels_.back();
  }

  Status ForEachBody(const std::function<Status(FunctionDecl&)>& fn) {
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (f->body) BRIDGECL_RETURN_IF_ERROR(fn(*f));
    }
    return OkStatus();
  }

  // ---- pass 1: template specialization (§3.6: "a template function is
  // specialized") ----
  Status SpecializeTemplates() {
    std::unordered_map<std::string, FunctionDecl*> templates;
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (!f->template_params.empty()) {
        if (f->quals.is_kernel)
          return Untranslatable(
              f->loc, "templated __global__ kernel '" + f->name +
                          "' (OpenCL 1.2 has no templates and the host "
                          "cannot name a specialization to launch)");
        templates[f->name] = f;
      }
    }
    if (templates.empty()) return OkStatus();

    std::map<std::pair<std::string, std::string>, std::string> instances;
    std::vector<DeclPtr> new_decls;

    auto mangle = [](const Type::Ptr& t) {
      std::string s = t->ToString();
      for (char& c : s)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return s;
    };

    auto fix = [&](ExprPtr& e) -> Status {
      if (e->kind != ExprKind::kCall) return OkStatus();
      auto* c = e->As<CallExpr>();
      std::string name = c->callee_name();
      auto it = templates.find(name);
      if (it == templates.end()) return OkStatus();
      if (c->type_args.empty())
        return Untranslatable(e->loc,
                              "template call '" + name +
                                  "' without explicit type arguments");
      FunctionDecl* tmpl = it->second;
      if (c->type_args.size() != tmpl->template_params.size())
        return Untranslatable(e->loc, "template argument count mismatch");
      std::string key;
      for (const auto& t : c->type_args) key += "_" + mangle(t);
      auto ikey = std::make_pair(name, key);
      auto found = instances.find(ikey);
      std::string spec_name;
      if (found != instances.end()) {
        spec_name = found->second;
      } else {
        spec_name = name + key;
        instances[ikey] = spec_name;
        // Clone and substitute.
        auto clone = std::make_unique<FunctionDecl>();
        clone->loc = tmpl->loc;
        clone->name = spec_name;
        clone->quals = tmpl->quals;
        clone->return_type = tmpl->return_type;
        clone->return_type_spelling = tmpl->return_type_spelling;
        for (auto& p : tmpl->params)
          clone->params.push_back(CloneVarDecl(*p));
        clone->param_is_reference = tmpl->param_is_reference;
        clone->body.reset(
            static_cast<CompoundStmt*>(CloneStmt(*tmpl->body).release()));
        std::unordered_map<std::string, Type::Ptr> bind;
        for (size_t i = 0; i < tmpl->template_params.size(); ++i)
          bind[tmpl->template_params[i].name] = c->type_args[i];
        auto subst = [&](const Type::Ptr& t) -> Type::Ptr {
          if (t && t->is_named()) {
            auto b = bind.find(t->name());
            if (b != bind.end()) return b->second;
          }
          return nullptr;
        };
        clone->return_type = ReplaceType(clone->return_type, subst);
        for (auto& p : clone->params) p->type = ReplaceType(p->type, subst);
        auto fix_var = [&](VarDecl* v) -> Status {
          v->type = ReplaceType(v->type, subst);
          return OkStatus();
        };
        BRIDGECL_RETURN_IF_ERROR(VisitVarDecls(clone->body.get(), fix_var));
        BRIDGECL_RETURN_IF_ERROR(
            MutateExprs(clone->body.get(), [&](ExprPtr& ex) -> Status {
              if (ex->kind == ExprKind::kCast) {
                auto* cast = ex->As<CastExpr>();
                cast->target = ReplaceType(cast->target, subst);
              } else if (ex->kind == ExprKind::kSizeof) {
                auto* sz = ex->As<SizeofExpr>();
                if (sz->arg_type)
                  sz->arg_type = ReplaceType(sz->arg_type, subst);
              }
              return OkStatus();
            }));
        new_decls.push_back(std::move(clone));
      }
      c->callee = MakeRef(spec_name);
      c->type_args.clear();
      return OkStatus();
    };
    BRIDGECL_RETURN_IF_ERROR(ForEachBody([&](FunctionDecl& fn) {
      if (!fn.template_params.empty()) return OkStatus();
      return MutateExprs(fn.body.get(), fix);
    }));
    // Insert specializations before the first function and drop templates.
    std::vector<DeclPtr> rebuilt;
    bool inserted = false;
    for (auto& d : tu_.decls) {
      if (d->kind == DeclKind::kFunction) {
        if (!inserted) {
          for (auto& nd : new_decls) rebuilt.push_back(std::move(nd));
          inserted = true;
        }
        if (!d->As<FunctionDecl>()->template_params.empty()) continue;
      }
      rebuilt.push_back(std::move(d));
    }
    if (!inserted)
      for (auto& nd : new_decls) rebuilt.push_back(std::move(nd));
    tu_.decls = std::move(rebuilt);
    return OkStatus();
  }

  // ---- pass 2: C++ references → pointers (§3.6) ----
  Status LowerReferences() {
    // Collect (function name, param index) with references.
    std::unordered_map<std::string, std::vector<int>> ref_params;
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      for (size_t i = 0; i < f->param_is_reference.size(); ++i)
        if (f->param_is_reference[i])
          ref_params[f->name].push_back(static_cast<int>(i));
    }
    if (ref_params.empty()) return OkStatus();

    // Rewrite declarations and bodies.
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      auto it = ref_params.find(f->name);
      if (it != ref_params.end()) {
        std::unordered_set<std::string> names;
        for (int i : it->second) {
          VarDecl* p = f->params[i].get();
          p->type = Type::Pointer(p->type, AddressSpace::kPrivate);
          names.insert(p->name);
        }
        std::fill(f->param_is_reference.begin(),
                  f->param_is_reference.end(), false);
        // Wrap uses in (*name).
        BRIDGECL_RETURN_IF_ERROR(
            MutateExprs(f->body.get(), [&](ExprPtr& e) -> Status {
              if (e->kind != ExprKind::kDeclRef) return OkStatus();
              auto* r = e->As<DeclRefExpr>();
              if (!names.count(r->name) || r->var == nullptr ||
                  !r->var->is_param)
                return OkStatus();
              auto deref = std::make_unique<UnaryExpr>();
              deref->op = UnaryOp::kDeref;
              deref->type = e->type;
              deref->operand = std::move(e);
              auto paren = std::make_unique<ParenExpr>();
              paren->type = deref->type;
              paren->inner = std::move(deref);
              e = std::move(paren);
              return OkStatus();
            }));
      }
    }
    // Rewrite call sites: pass &arg.
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), [&](ExprPtr& e) -> Status {
        if (e->kind != ExprKind::kCall) return OkStatus();
        auto* c = e->As<CallExpr>();
        auto it = ref_params.find(c->callee_name());
        if (it == ref_params.end()) return OkStatus();
        for (int i : it->second) {
          if (i >= static_cast<int>(c->args.size())) continue;
          // The argument was rewritten to (*x) if it itself is a lowered
          // reference param; &(*x) simplifies to x.
          if (c->args[i]->kind == ExprKind::kParen &&
              c->args[i]->As<ParenExpr>()->inner->kind == ExprKind::kUnary &&
              c->args[i]->As<ParenExpr>()->inner->As<UnaryExpr>()->op ==
                  UnaryOp::kDeref) {
            c->args[i] = std::move(c->args[i]
                                       ->As<ParenExpr>()
                                       ->inner->As<UnaryExpr>()
                                       ->operand);
            continue;
          }
          auto addr = std::make_unique<UnaryExpr>();
          addr->op = UnaryOp::kAddrOf;
          addr->operand = std::move(c->args[i]);
          c->args[i] = std::move(addr);
        }
        return OkStatus();
      });
    });
  }

  // ---- pass 3: kernel parameter checks (heartwall, §6.3) ----
  Status CheckKernelParams() {
    auto has_pointer_field = [](const StructDecl* sd,
                                auto&& self) -> bool {
      for (const StructField& f : sd->fields) {
        Type::Ptr t = f.type;
        while (t && t->is_array()) t = t->element();
        if (t && t->is_pointer()) return true;
        if (t && t->is_struct() && self(t->struct_decl(), self)) return true;
      }
      return false;
    };
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (!f->quals.is_kernel) continue;
      for (auto& p : f->params) {
        if (p->type && p->type->is_struct() &&
            has_pointer_field(p->type->struct_decl(), has_pointer_field)) {
          return Untranslatable(
              p->loc,
              "kernel parameter '" + p->name +
                  "' is a struct containing device pointers; their address "
                  "spaces cannot be expressed in OpenCL 1.2 (the heartwall "
                  "case)");
        }
      }
    }
    return OkStatus();
  }

  // ---- pass 4: built-in variables and functions ----
  Status RewriteBuiltinsAndVars() {
    auto fix = [&](ExprPtr& e) -> Status {
      // threadIdx.x → get_local_id(0) etc. (the variable's counterpart).
      if (e->kind == ExprKind::kMember) {
        auto* m = e->As<MemberExpr>();
        if (m->base->kind == ExprKind::kDeclRef) {
          const BuiltinRef& b = m->base->As<DeclRefExpr>()->builtin;
          if (b && b.info->counterpart != nullptr && m->is_swizzle &&
              m->swizzle.size() == 1) {
            std::vector<ExprPtr> args;
            args.push_back(MakeIntLit(m->swizzle[0]));
            auto call = MakeCall(b.info->counterpart, std::move(args));
            call->type = Type::SizeTy();
            call->loc = e->loc;
            e = std::move(call);
            return OkStatus();
          }
        }
      }
      // Model-specific CUDA built-ins, called or read (§3.7 / Table 3).
      if (e->kind == ExprKind::kDeclRef) {
        auto* r = e->As<DeclRefExpr>();
        if (r->builtin && r->builtin.info->hw_specific)
          return Untranslatable(e->loc, "'" + r->name +
                                            "' has no corresponding OpenCL "
                                            "function");
      }
      // C++ casts → C casts (§3.6).
      if (e->kind == ExprKind::kCast) {
        e->As<CastExpr>()->style = CastStyle::kCStyle;
        return OkStatus();
      }
      if (e->kind != ExprKind::kCall) return OkStatus();
      auto* c = e->As<CallExpr>();
      const std::string& name = c->callee_name();
      if (name.empty()) {
        return Untranslatable(e->loc,
                              "indirect call through a function pointer");
      }
      const BuiltinRef& b = c->builtin();
      // User functions, and wrapper-library spellings, keep their names.
      if (!b || b.wrapped) return OkStatus();
      switch (b.op()) {
        case BuiltinOp::kPrintf:
          return Untranslatable(
              e->loc, "device-side printf (a CUDA language extension)");
        case BuiltinOp::kAtomicIncWrap:
        case BuiltinOp::kAtomicDecWrap:
          if (!opts_.allow_atomic_emulation)
            return Untranslatable(
                e->loc,
                "'" + name +
                    "' wrap-around semantics differ from OpenCL "
                    "atomic_inc/atomic_dec (§3.7); enable atomic emulation "
                    "to translate");
          used_atomic_emulation_ = true;
          c->callee = MakeRef("__cu2cl_" + name);
          return OkStatus();
        // OpenCL barriers and fences name the memory they order.
        case BuiltinOp::kBarrier:
        case BuiltinOp::kMemFence:
        case BuiltinOp::kThreadFence:
          c->args.clear();
          c->args.push_back(MakeRef(b.op() == BuiltinOp::kThreadFence
                                        ? "CLK_GLOBAL_MEM_FENCE"
                                        : "CLK_LOCAL_MEM_FENCE"));
          break;
        // make_floatN(...) → (floatN)(...) vector literal; make_float1 →
        // cast.
        case BuiltinOp::kMakeVector: {
          ScalarKind ek = b.elem;
          if (ek == ScalarKind::kLongLong) ek = ScalarKind::kLong;
          if (ek == ScalarKind::kULongLong) ek = ScalarKind::kULong;
          if (b.width == 1) {
            auto cast = std::make_unique<CastExpr>();
            cast->style = CastStyle::kCStyle;
            cast->target = Type::Scalar(ek);
            cast->operand = std::move(c->args[0]);
            cast->loc = e->loc;
            e = std::move(cast);
            return OkStatus();
          }
          auto lit = std::make_unique<VectorLitExpr>();
          lit->vec_type = Type::Vector(ek, b.width);
          lit->elems = std::move(c->args);
          lit->type = lit->vec_type;
          lit->loc = e->loc;
          e = std::move(lit);
          return OkStatus();
        }
        default:
          break;
      }
      if (b.info->counterpart != nullptr)
        c->callee = MakeRef(b.info->counterpart);
      return OkStatus();
    };
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), fix);
    });
  }

  // ---- pass 5: one-component vectors → scalars (§3.6) ----
  Status LowerOneComponentVectors() {
    // Remove `.x` on width-1 vector values first.
    BRIDGECL_RETURN_IF_ERROR(ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), [&](ExprPtr& e) -> Status {
        if (e->kind != ExprKind::kMember) return OkStatus();
        auto* m = e->As<MemberExpr>();
        if (m->is_swizzle && m->base->type &&
            m->base->type->is_vector() &&
            m->base->type->vector_width() == 1) {
          e = std::move(m->base);
        }
        return OkStatus();
      });
    }));
    auto replace = [&](const Type::Ptr& t) -> Type::Ptr {
      if (t && t->is_vector() && t->vector_width() == 1)
        return Type::Scalar(t->scalar_kind());
      return nullptr;
    };
    return ReplaceTypesEverywhere(tu_, replace);
  }

  // ---- pass 6: longlong → long (§3.6: same size on the device) ----
  Status LowerLongLong() {
    auto replace = [&](const Type::Ptr& t) -> Type::Ptr {
      if (!t) return nullptr;
      auto map = [](ScalarKind k) {
        if (k == ScalarKind::kLongLong) return ScalarKind::kLong;
        if (k == ScalarKind::kULongLong) return ScalarKind::kULong;
        return k;
      };
      if (t->is_scalar() && map(t->scalar_kind()) != t->scalar_kind())
        return Type::Scalar(map(t->scalar_kind()));
      if (t->is_vector() && map(t->scalar_kind()) != t->scalar_kind())
        return Type::Vector(map(t->scalar_kind()), t->vector_width());
      return nullptr;
    };
    return ReplaceTypesEverywhere(tu_, replace);
  }

  // ---- pass 7: extern __shared__ → appended __local param (§4.1) ----
  Status RewriteDynamicShared() {
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* fn = d->As<FunctionDecl>();
      if (fn->body == nullptr) continue;
      // Find extern __shared__ declarations.
      std::vector<std::pair<std::string, Type::Ptr>> dyn;
      BRIDGECL_RETURN_IF_ERROR(
          VisitVarDecls(fn->body.get(), [&](VarDecl* v) -> Status {
            if (v->quals.is_extern &&
                v->quals.space == AddressSpace::kLocal) {
              Type::Ptr elem =
                  v->type->is_array() ? v->type->element() : v->type;
              dyn.emplace_back(v->name, elem);
            }
            return OkStatus();
          }));
      if (dyn.empty()) continue;
      if (!fn->quals.is_kernel)
        return Untranslatable(fn->loc,
                              "extern __shared__ in a __device__ function");
      if (dyn.size() > 1)
        return Untranslatable(fn->loc,
                              "multiple extern __shared__ declarations");
      // Remove the declarations from the body.
      StmtPtr body(fn->body.release());
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(body, [&](StmtPtr& s) -> Status {
        if (s->kind != StmtKind::kDecl) return OkStatus();
        auto* ds = s->As<DeclStmt>();
        auto& vars = ds->vars;
        vars.erase(std::remove_if(vars.begin(), vars.end(),
                                  [&](const std::unique_ptr<VarDecl>& v) {
                                    return v->quals.is_extern &&
                                           v->quals.space ==
                                               AddressSpace::kLocal;
                                  }),
                   vars.end());
        if (vars.empty()) s = std::make_unique<EmptyStmt>();
        return OkStatus();
      }));
      fn->body.reset(static_cast<CompoundStmt*>(body.release()));
      // Append the __local pointer parameter.
      auto param = std::make_unique<VarDecl>();
      param->name = dyn[0].first;
      param->type = Type::Pointer(dyn[0].second, AddressSpace::kLocal);
      param->is_param = true;
      param->quals.space_explicit = true;
      fn->params.push_back(std::move(param));
      fn->param_is_reference.push_back(false);
      InfoFor(*fn).has_dynamic_shared = true;
    }
    return OkStatus();
  }

  // ---- pass 8: texture references → image + sampler params (§5) ----
  Status RewriteTextures() {
    std::unordered_map<std::string, const TextureRefDecl*> texrefs;
    for (auto& d : tu_.decls)
      if (d->kind == DeclKind::kTextureRef)
        texrefs[d->name] = d->As<TextureRefDecl>();
    if (texrefs.empty()) return OkStatus();

    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* fn = d->As<FunctionDecl>();
      if (fn->body == nullptr) continue;
      std::vector<std::string> used;  // in order of first use
      auto note_use = [&](const std::string& n) {
        for (const auto& u : used)
          if (u == n) return;
        used.push_back(n);
      };
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(fn->body.get(), [&](ExprPtr& e) -> Status {
            if (e->kind != ExprKind::kCall) return OkStatus();
            auto* c = e->As<CallExpr>();
            if (c->builtin().op() != BuiltinOp::kTexFetch) {
              // A bare texref used any other way is untranslatable.
              for (auto& a : c->args) {
                if (a->kind == ExprKind::kDeclRef &&
                    texrefs.count(a->As<DeclRefExpr>()->name))
                  return Untranslatable(
                      e->loc, "texture reference passed to a function");
              }
              return OkStatus();
            }
            if (c->args[0]->kind != ExprKind::kDeclRef)
              return Untranslatable(e->loc,
                                    "texture fetch on a non-reference");
            std::string tex = c->args[0]->As<DeclRefExpr>()->name;
            auto it = texrefs.find(tex);
            if (it == texrefs.end())
              return Untranslatable(e->loc,
                                    "unknown texture reference '" + tex +
                                        "'");
            if (!fn->quals.is_kernel)
              return Untranslatable(
                  e->loc, "texture fetch inside a __device__ function");
            note_use(tex);
            const TextureRefDecl* tr = it->second;
            // read_image{f,i,ui}(img, sampler, coord)
            const char* suffix = IsFloatScalar(tr->elem)            ? "f"
                                 : IsSignedScalar(tr->elem)         ? "i"
                                                                    : "ui";
            auto call = std::make_unique<CallExpr>();
            call->callee = MakeRef(std::string("read_image") + suffix);
            call->loc = e->loc;
            auto img = MakeRef(tex + "__img");
            auto samp = MakeRef(tex + "__sampler");
            call->args.push_back(std::move(img));
            call->args.push_back(std::move(samp));
            // One coordinate per texture dimension.
            if (c->args.size() == 2) {
              call->args.push_back(std::move(c->args[1]));
            } else if (c->args.size() == 3) {
              auto lit = std::make_unique<VectorLitExpr>();
              lit->vec_type = Type::Vector(ScalarKind::kFloat, 2);
              lit->elems.push_back(std::move(c->args[1]));
              lit->elems.push_back(std::move(c->args[2]));
              call->args.push_back(std::move(lit));
            } else {  // tex3D
              auto lit = std::make_unique<VectorLitExpr>();
              lit->vec_type = Type::Vector(ScalarKind::kFloat, 4);
              lit->elems.push_back(std::move(c->args[1]));
              lit->elems.push_back(std::move(c->args[2]));
              lit->elems.push_back(std::move(c->args[3]));
              auto zero = std::make_unique<FloatLitExpr>();
              zero->value = 0;
              zero->is_float = true;
              zero->spelling = "0.0f";
              lit->elems.push_back(std::move(zero));
              call->args.push_back(std::move(lit));
            }
            call->type = Type::Vector(
                IsFloatScalar(tr->elem) ? ScalarKind::kFloat
                : IsSignedScalar(tr->elem) ? ScalarKind::kInt
                                           : ScalarKind::kUInt,
                4);
            // Narrow the 4-component result to the texel width.
            if (tr->elem_width == 1) {
              auto mem = MakeMember(std::move(call), "x");
              mem->is_swizzle = true;
              mem->swizzle = {0};
              mem->type = Type::Scalar(tr->elem);
              e = std::move(mem);
            } else if (tr->elem_width < 4) {
              auto mem = MakeMember(std::move(call),
                                    tr->elem_width == 2 ? "xy" : "xyz");
              mem->is_swizzle = true;
              for (int i = 0; i < tr->elem_width; ++i) mem->swizzle.push_back(i);
              mem->type = Type::Vector(tr->elem, tr->elem_width);
              e = std::move(mem);
            } else {
              e = std::move(call);
            }
            return OkStatus();
          }));
      // Append (image, sampler) parameter pairs.
      for (const std::string& tex : used) {
        const TextureRefDecl* tr = texrefs[tex];
        auto img = std::make_unique<VarDecl>();
        img->name = tex + "__img";
        img->type = Type::Image(tr->dims == 3 ? 3 : tr->dims);
        img->is_param = true;
        img->quals.read_only = true;
        fn->params.push_back(std::move(img));
        fn->param_is_reference.push_back(false);
        auto samp = std::make_unique<VarDecl>();
        samp->name = tex + "__sampler";
        samp->type = Type::Sampler();
        samp->is_param = true;
        fn->params.push_back(std::move(samp));
        fn->param_is_reference.push_back(false);
        InfoFor(*fn).texture_params.push_back(tex);
      }
    }
    // Drop the texture reference declarations.
    tu_.decls.erase(
        std::remove_if(tu_.decls.begin(), tu_.decls.end(),
                       [](const DeclPtr& d) {
                         return d->kind == DeclKind::kTextureRef;
                       }),
        tu_.decls.end());
    return OkStatus();
  }

  // ---- pass 9: __device__ globals & runtime-initialized __constant__
  // globals → appended pointer params (§4.2-§4.3) ----
  Status RewriteStaticSymbols() {
    struct SymbolRec {
      VarDecl* decl;
      bool is_constant;
      bool is_array;
    };
    std::unordered_map<std::string, SymbolRec> symbols;
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kVar) continue;
      auto* v = d->As<VarDecl>();
      if (v->quals.space == AddressSpace::kGlobal) {
        symbols[v->name] = {v, false, v->type->is_array()};
      } else if (v->quals.space == AddressSpace::kConstant &&
                 v->init == nullptr) {
        // §4.2: statically-initialized constants translate directly;
        // runtime-initialized ones (no initializer here, filled by
        // cudaMemcpyToSymbol) become dynamic constant buffers.
        symbols[v->name] = {v, true, v->type->is_array()};
      }
    }
    if (symbols.empty()) return OkStatus();

    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* fn = d->As<FunctionDecl>();
      if (fn->body == nullptr) continue;
      std::vector<std::string> used;
      auto note_use = [&](const std::string& n) {
        for (const auto& u : used)
          if (u == n) return;
        used.push_back(n);
      };
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(fn->body.get(), [&](ExprPtr& e) -> Status {
            if (e->kind != ExprKind::kDeclRef) return OkStatus();
            auto* r = e->As<DeclRefExpr>();
            auto it = symbols.find(r->name);
            if (it == symbols.end() || r->var != it->second.decl)
              return OkStatus();
            if (!fn->quals.is_kernel)
              return Untranslatable(
                  e->loc, "static device memory used in a __device__ "
                          "function");
            note_use(r->name);
            r->var = nullptr;  // now refers to the appended parameter
            if (!it->second.is_array) {
              // Scalar symbol: uses become (*name).
              auto deref = std::make_unique<UnaryExpr>();
              deref->op = UnaryOp::kDeref;
              deref->operand = std::move(e);
              auto paren = std::make_unique<ParenExpr>();
              paren->inner = std::move(deref);
              e = std::move(paren);
            }
            return OkStatus();
          }));
      for (const std::string& name : used) {
        const SymbolRec& rec = symbols[name];
        Type::Ptr elem = rec.is_array ? rec.decl->type->element()
                                      : rec.decl->type;
        auto param = std::make_unique<VarDecl>();
        param->name = name;
        param->type = Type::Pointer(
            elem, rec.is_constant ? AddressSpace::kConstant
                                  : AddressSpace::kGlobal);
        param->is_param = true;
        param->quals.space_explicit = true;
        fn->params.push_back(std::move(param));
        fn->param_is_reference.push_back(false);
        KernelTranslationInfo::SymbolParam sp;
        sp.name = name;
        sp.byte_size = rec.decl->type->ByteSize();
        sp.is_constant = rec.is_constant;
        InfoFor(*fn).symbol_params.push_back(std::move(sp));
      }
    }
    // Remove the converted declarations.
    tu_.decls.erase(
        std::remove_if(tu_.decls.begin(), tu_.decls.end(),
                       [&](const DeclPtr& d) {
                         if (d->kind != DeclKind::kVar) return false;
                         return symbols.count(d->name) > 0;
                       }),
        tu_.decls.end());
    return OkStatus();
  }

  // ---- pass 10: per-address-space specialization of device functions ----
  // OpenCL pointer parameters carry the pointee's address space; a CUDA
  // helper called with both __global and __local pointers needs one clone
  // per space (the paper's "new pointer variable for each address space").
  Status SpecializeFunctionSpaces() {
    // Gather call-site spaces for each non-kernel function.
    struct FnUse {
      std::map<std::vector<int>, std::string> variants;  // spaces -> name
    };
    std::unordered_map<std::string, FunctionDecl*> helpers;
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (!f->quals.is_kernel && f->body) helpers[f->name] = f;
    }
    if (helpers.empty()) return OkStatus();

    std::unordered_map<std::string, FnUse> uses;
    std::vector<DeclPtr> clones;
    auto suffix_for = [](const std::vector<int>& spaces) {
      std::string s;
      for (int sp : spaces) {
        switch (static_cast<AddressSpace>(sp)) {
          case AddressSpace::kGlobal: s += "g"; break;
          case AddressSpace::kLocal: s += "l"; break;
          case AddressSpace::kConstant: s += "c"; break;
          default: s += "p"; break;
        }
      }
      return s;
    };

    auto fix_calls = [&](FunctionDecl& caller) -> Status {
      return MutateExprs(caller.body.get(), [&](ExprPtr& e) -> Status {
        if (e->kind != ExprKind::kCall) return OkStatus();
        auto* c = e->As<CallExpr>();
        auto it = helpers.find(c->callee_name());
        if (it == helpers.end()) return OkStatus();
        FunctionDecl* helper = it->second;
        // Space signature from pointer arguments.
        std::vector<int> spaces;
        bool any_nonprivate = false;
        for (size_t i = 0;
             i < c->args.size() && i < helper->params.size(); ++i) {
          int sp = 0;
          if (helper->params[i]->type &&
              helper->params[i]->type->is_pointer() && c->args[i]->type &&
              c->args[i]->type->is_pointer()) {
            sp = static_cast<int>(c->args[i]->type->pointee_space());
            if (sp != 0) any_nonprivate = true;
          }
          spaces.push_back(sp);
        }
        if (!any_nonprivate) return OkStatus();
        FnUse& use = uses[helper->name];
        auto found = use.variants.find(spaces);
        std::string vname;
        if (found != use.variants.end()) {
          vname = found->second;
        } else {
          vname = helper->name + "__" + suffix_for(spaces);
          use.variants[spaces] = vname;
          auto clone = std::make_unique<FunctionDecl>();
          clone->name = vname;
          clone->quals = helper->quals;
          clone->return_type = helper->return_type;
          for (auto& p : helper->params)
            clone->params.push_back(CloneVarDecl(*p));
          clone->param_is_reference = helper->param_is_reference;
          clone->body.reset(static_cast<CompoundStmt*>(
              CloneStmt(*helper->body).release()));
          for (size_t i = 0; i < spaces.size(); ++i) {
            if (spaces[i] == 0 || !clone->params[i]->type->is_pointer())
              continue;
            clone->params[i]->type =
                Type::Pointer(clone->params[i]->type->pointee(),
                              static_cast<AddressSpace>(spaces[i]));
            clone->params[i]->quals.space_explicit = true;
          }
          clones.push_back(std::move(clone));
        }
        c->callee = MakeRef(vname);
        return OkStatus();
      });
    };
    // Kernels first (helpers may call helpers; one level is supported).
    BRIDGECL_RETURN_IF_ERROR(ForEachBody(fix_calls));
    if (clones.empty()) return OkStatus();
    // Insert clones before the first kernel; drop now-unused originals
    // only when every call was specialized (conservatively keep them).
    std::vector<DeclPtr> rebuilt;
    bool inserted = false;
    for (auto& d : tu_.decls) {
      if (!inserted && d->kind == DeclKind::kFunction &&
          d->As<FunctionDecl>()->quals.is_kernel) {
        for (auto& cl : clones) rebuilt.push_back(std::move(cl));
        inserted = true;
      }
      rebuilt.push_back(std::move(d));
    }
    if (!inserted)
      for (auto& cl : clones) rebuilt.push_back(std::move(cl));
    tu_.decls = std::move(rebuilt);
    return OkStatus();
  }

  // ---- pass 11: multi-space pointers (§3.6). A pointer variable that
  // takes addresses from two or more address spaces cannot be typed in
  // OpenCL 1.2. Following the paper ("our translator generates a new
  // pointer variable for each address space"), the common straight-line
  // reuse pattern
  //     float* p = gptr;  ... p[i] ...  p = tile;  ... p[i] ...
  // is split into one variable per segment, where every assignment to the
  // pointer is a direct statement of the block that declares it (each use
  // then has a unique reaching definition). Reassignments inside nested
  // control flow are rejected.
  Status SplitMultiSpacePointers() {
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* fn = d->As<FunctionDecl>();
      if (fn->body == nullptr) continue;
      // Pointer locals assigned in >= 2 distinct non-private spaces.
      std::unordered_map<std::string, std::set<int>> spaces;
      auto note = [&](const Expr* lhs, const Expr* rhs) {
        if (lhs->kind != ExprKind::kDeclRef) return;
        if (!lhs->type || !lhs->type->is_pointer()) return;
        if (!rhs->type || !rhs->type->is_pointer()) return;
        int sp = static_cast<int>(rhs->type->pointee_space());
        if (sp != 0) spaces[lhs->As<DeclRefExpr>()->name].insert(sp);
      };
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(fn->body.get(), [&](ExprPtr& e) -> Status {
            if (e->kind == ExprKind::kAssign) {
              auto* a = e->As<AssignExpr>();
              note(a->lhs.get(), a->rhs.get());
            }
            return OkStatus();
          }));
      BRIDGECL_RETURN_IF_ERROR(
          VisitVarDecls(fn->body.get(), [&](VarDecl* v) -> Status {
            if (v->init && v->type && v->type->is_pointer() &&
                v->init->type && v->init->type->is_pointer()) {
              int sp = static_cast<int>(v->init->type->pointee_space());
              if (sp != 0) spaces[v->name].insert(sp);
            }
            return OkStatus();
          }));
      for (const auto& [name, sps] : spaces) {
        if (sps.size() < 2) continue;
        BRIDGECL_RETURN_IF_ERROR(SplitOnePointer(*fn, name));
      }
    }
    return OkStatus();
  }

  static const char* SpaceSuffix(AddressSpace sp) {
    switch (sp) {
      case AddressSpace::kGlobal: return "__g";
      case AddressSpace::kLocal: return "__l";
      case AddressSpace::kConstant: return "__c";
      default: return "__p";
    }
  }

  /// Split pointer `name` in `fn` into one clone per straight-line
  /// segment. Requires the declaration and every plain assignment to be
  /// direct statements of the same compound block.
  Status SplitOnePointer(FunctionDecl& fn, const std::string& name) {
    // Locate the compound block whose statement list declares `name`.
    std::function<CompoundStmt*(Stmt*)> find_home =
        [&](Stmt* s) -> CompoundStmt* {
      if (s == nullptr) return nullptr;
      switch (s->kind) {
        case StmtKind::kCompound: {
          auto* c = s->As<CompoundStmt>();
          for (auto& st : c->body) {
            if (st->kind == StmtKind::kDecl) {
              for (auto& v : st->As<DeclStmt>()->vars)
                if (v->name == name) return c;
            }
            if (CompoundStmt* inner = find_home(st.get())) return inner;
          }
          return nullptr;
        }
        case StmtKind::kIf: {
          auto* i = s->As<IfStmt>();
          if (auto* c = find_home(i->then_stmt.get())) return c;
          return find_home(i->else_stmt.get());
        }
        case StmtKind::kFor:
          return find_home(s->As<ForStmt>()->body.get());
        case StmtKind::kWhile:
          return find_home(s->As<WhileStmt>()->body.get());
        case StmtKind::kDo:
          return find_home(s->As<DoStmt>()->body.get());
        default:
          return nullptr;
      }
    };
    CompoundStmt* home = find_home(fn.body.get());
    if (home == nullptr)
      return Untranslatable(fn.loc, "multi-space pointer '" + name +
                                        "' with no local declaration");

    auto assign_to_name = [&](const Stmt& s) -> AssignExpr* {
      if (s.kind != StmtKind::kExpr) return nullptr;
      Expr* e = s.As<ExprStmt>()->expr.get();
      if (e->kind != ExprKind::kAssign) return nullptr;
      auto* a = e->As<AssignExpr>();
      if (a->compound) return nullptr;
      if (a->lhs->kind != ExprKind::kDeclRef) return nullptr;
      return a->lhs->As<DeclRefExpr>()->name == name ? a : nullptr;
    };
    // Every assignment must be a direct statement of the home block;
    // otherwise the reaching definition at a use is ambiguous.
    int top_level_assigns = 0;
    for (auto& st : home->body)
      if (assign_to_name(*st) != nullptr) ++top_level_assigns;
    int total_assigns = 0;
    BRIDGECL_RETURN_IF_ERROR(
        MutateExprs(fn.body.get(), [&](ExprPtr& e) -> Status {
          if (e->kind == ExprKind::kAssign && !e->As<AssignExpr>()->compound &&
              e->As<AssignExpr>()->lhs->kind == ExprKind::kDeclRef &&
              e->As<AssignExpr>()->lhs->As<DeclRefExpr>()->name == name)
            ++total_assigns;
          return OkStatus();
        }));
    if (total_assigns != top_level_assigns)
      return Untranslatable(
          fn.loc, "pointer '" + name + "' in '" + fn.name +
                      "' is reassigned across address spaces inside "
                      "control flow; OpenCL 1.2 cannot type it and no "
                      "unique reaching definition exists to split it");

    // Walk the home block: a new clone starts at the declaration and at
    // every reassignment; uses in between (including inside nested
    // statements) rename to the current clone.
    int clone_id = 0;
    std::string current;
    auto rename_uses_in = [&](Stmt* s) {
      if (current.empty() || s == nullptr) return;
      (void)MutateExprs(s, [&](ExprPtr& e) -> Status {
        if (e->kind == ExprKind::kDeclRef &&
            e->As<DeclRefExpr>()->name == name) {
          e->As<DeclRefExpr>()->name = current;
          e->As<DeclRefExpr>()->var = nullptr;
        }
        return OkStatus();
      });
    };
    for (auto& st : home->body) {
      if (st->kind == StmtKind::kDecl) {
        bool renamed = false;
        for (auto& v : st->As<DeclStmt>()->vars) {
          if (v->name != name) continue;
          AddressSpace sp =
              v->init && v->init->type && v->init->type->is_pointer()
                  ? v->init->type->pointee_space()
                  : AddressSpace::kPrivate;
          current = name + SpaceSuffix(sp) + std::to_string(clone_id++);
          v->name = current;
          if (v->type && v->type->is_pointer())
            v->type = Type::Pointer(v->type->pointee(), sp);
          renamed = true;
        }
        if (!renamed) rename_uses_in(st.get());
        continue;
      }
      if (AssignExpr* a = assign_to_name(*st)) {
        // Uses inside the RHS still refer to the previous clone.
        rename_uses_in(st.get());  // renames lhs too; we rebuild it anyway
        AddressSpace sp = a->rhs->type && a->rhs->type->is_pointer()
                              ? a->rhs->type->pointee_space()
                              : AddressSpace::kPrivate;
        current = name + SpaceSuffix(sp) + std::to_string(clone_id++);
        auto var = std::make_unique<VarDecl>();
        var->name = current;
        var->type = a->rhs->type && a->rhs->type->is_pointer()
                        ? a->rhs->type
                        : Type::Pointer(Type::FloatTy(), sp);
        var->init = std::move(a->rhs);
        auto ds = std::make_unique<DeclStmt>();
        ds->vars.push_back(std::move(var));
        st = std::move(ds);
        continue;
      }
      rename_uses_in(st.get());
    }
    return OkStatus();
  }

  void FinalizeKernelInfos() {
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (f->quals.is_kernel && f->body) InfoFor(*f);
    }
  }

  TranslationUnit& tu_;
  DiagnosticEngine& diags_;
  TranslateOptions opts_;
  std::vector<KernelTranslationInfo> kernels_;
  bool used_atomic_emulation_ = false;
};

}  // namespace

StatusOr<TranslationResult> TranslateCudaToOpenCl(
    const std::string& source, DiagnosticEngine& diags,
    const TranslateOptions& opts) {
  ParseOptions popts;
  popts.dialect = Dialect::kCUDA;
  BRIDGECL_ASSIGN_OR_RETURN(auto tu,
                            ParseTranslationUnit(source, popts, diags));
  SemaOptions sopts;
  sopts.dialect = Dialect::kCUDA;
  BRIDGECL_RETURN_IF_ERROR(Analyze(*tu, sopts, diags));
  CuToCl pass(*tu, diags, opts);
  return pass.Run();
}

}  // namespace bridgecl::translator
