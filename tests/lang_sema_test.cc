#include <gtest/gtest.h>

#include "lang/parser.h"
#include "lang/sema.h"

namespace bridgecl::lang {
namespace {

std::unique_ptr<TranslationUnit> Analyzed(const std::string& src, Dialect d,
                                          bool expect_ok = true) {
  DiagnosticEngine diags;
  ParseOptions popts;
  popts.dialect = d;
  auto tu = ParseTranslationUnit(src, popts, diags);
  EXPECT_TRUE(tu.ok()) << diags.ToString();
  if (!tu.ok()) return nullptr;
  SemaOptions sopts;
  sopts.dialect = d;
  Status st = Analyze(**tu, sopts, diags);
  EXPECT_EQ(st.ok(), expect_ok) << diags.ToString();
  return std::move(*tu);
}

TEST(SemaTest, ResolvesNamesAndTypes) {
  auto tu = Analyzed(
      "__kernel void k(__global float* a, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) a[i] = a[i] * 2.0f;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  // a[i] * 2.0f has type float.
  auto* iff = f->body->body[1]->As<IfStmt>();
  auto* assign = iff->then_stmt->As<ExprStmt>()->expr->As<AssignExpr>();
  ASSERT_NE(assign->rhs->type, nullptr);
  EXPECT_EQ(assign->rhs->type->scalar_kind(), ScalarKind::kFloat);
}

TEST(SemaTest, UndeclaredIdentifierFails) {
  Analyzed("__kernel void k(__global int* a) { a[0] = bogus; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, UndeclaredFunctionFails) {
  Analyzed("__kernel void k(__global int* a) { a[0] = no_such_fn(1); }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, SwizzleTyping) {
  auto tu = Analyzed(
      "__kernel void k(__global float4* v) {"
      "  float2 lo = v[0].lo;"
      "  float x = v[0].x;"
      "  float4 r = v[0].wzyx;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, InvalidSwizzleFails) {
  Analyzed("__kernel void k(__global float2* v) { float x = v[0].z; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, SwizzleResolution) {
  EXPECT_EQ(ResolveSwizzle("x", 4), (std::vector<int>{0}));
  EXPECT_EQ(ResolveSwizzle("wzyx", 4), (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(ResolveSwizzle("lo", 4), (std::vector<int>{0, 1}));
  EXPECT_EQ(ResolveSwizzle("hi", 4), (std::vector<int>{2, 3}));
  EXPECT_EQ(ResolveSwizzle("even", 8), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(ResolveSwizzle("odd", 4), (std::vector<int>{1, 3}));
  EXPECT_EQ(ResolveSwizzle("s0", 16), (std::vector<int>{0}));
  EXPECT_EQ(ResolveSwizzle("sF", 16), (std::vector<int>{15}));
  EXPECT_EQ(ResolveSwizzle("s01", 2), (std::vector<int>{0, 1}));
  EXPECT_TRUE(ResolveSwizzle("q", 4).empty());
  EXPECT_TRUE(ResolveSwizzle("z", 2).empty());
  EXPECT_TRUE(ResolveSwizzle("xyzwx", 4).empty());
  // A selection must itself be a vector width: 5..7 and 9..15 are not.
  EXPECT_EQ(ResolveSwizzle("s01234567", 8).size(), 8u);
  EXPECT_TRUE(ResolveSwizzle("s01234", 8).empty());
  EXPECT_TRUE(ResolveSwizzle("s0123456789", 16).empty());
}

TEST(SemaTest, StructLayout) {
  auto tu = Analyzed(
      "typedef struct { char c; double d; int i; } Mixed;"
      "__kernel void k(__global Mixed* m) { m[0].i = 1; }",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  auto* sd = tu->decls[0]->As<StructDecl>();
  EXPECT_EQ(sd->fields[0].offset, 0u);
  EXPECT_EQ(sd->fields[1].offset, 8u);   // double aligned to 8
  EXPECT_EQ(sd->fields[2].offset, 16u);
  EXPECT_EQ(sd->byte_size, 24u);         // padded to alignment 8
  EXPECT_EQ(sd->alignment, 8u);
}

TEST(SemaTest, CudaKernelPointerParamsDefaultToGlobal) {
  auto tu = Analyzed("__global__ void k(float* a) { a[0] = 1.0f; }",
                     Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  EXPECT_EQ(f->params[0]->type->pointee_space(), AddressSpace::kGlobal);
}

TEST(SemaTest, PointerSpacePropagatesThroughLocals) {
  auto tu = Analyzed(
      "__global__ void k(float* a) {"
      "  float* p = a;"      // p inherits global pointee space
      "  p[0] = 1.0f;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  auto* ds = f->body->body[0]->As<DeclStmt>();
  EXPECT_EQ(ds->vars[0]->type->pointee_space(), AddressSpace::kGlobal);
}

TEST(SemaTest, CudaBuiltinVariables) {
  auto tu = Analyzed(
      "__global__ void k(int* o) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  o[i] = i;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, OpenClWorkItemFnsReturnSizeT) {
  auto tu = Analyzed(
      "__kernel void k(__global int* o) {"
      "  size_t i = get_global_id(0);"
      "  o[i] = (int)get_local_size(0);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, CudaBuiltinVarsRejectedInOpenCl) {
  Analyzed("__kernel void k(__global int* o) { o[0] = threadIdx.x; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, OpenClBuiltinsRejectedInCuda) {
  Analyzed("__global__ void k(int* o) { o[0] = get_global_id(0); }",
           Dialect::kCUDA, /*expect_ok=*/false);
}

TEST(SemaTest, AtomicResultTypes) {
  auto tu = Analyzed(
      "__kernel void k(__global int* c) {"
      "  int old = atomic_inc(c);"
      "  int o2 = atomic_add(c, 5);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, RegisterEstimateGrowsWithLocals) {
  auto small = Analyzed("__kernel void k() { int a; }", Dialect::kOpenCL);
  auto big = Analyzed(
      "__kernel void k() { int a; int b; int c; int d; float e; float f; }",
      Dialect::kOpenCL);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(big->FindFunction("k")->register_estimate,
            small->FindFunction("k")->register_estimate);
}

TEST(SemaTest, FrameSlotsAndStaticSharedLayout) {
  // Params take slots 0..n-1, locals the next ones in declaration order
  // (shadowing declarations included); a kernel's static __local
  // variables get naturally aligned offsets, extern/dynamic ones none.
  auto tu = Analyzed(
      "__device__ int f(int x) { int y = x; return y; }"
      "__global__ void k(float* a, int n) {"
      "  __shared__ char c[3];"
      "  int i = 0;"
      "  { int i = 1; }"
      "  __shared__ double d;"
      "  extern __shared__ float dyn[];"
      "  for (int j = 0; j < n; ++j) { __shared__ int t; }"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  const FunctionDecl* f = tu->FindFunction("f");
  EXPECT_EQ(f->params[0]->slot, 0);
  EXPECT_EQ(f->frame_slots, 2);
  EXPECT_EQ(f->static_shared_bytes, 0u);
  const FunctionDecl* k = tu->FindFunction("k");
  EXPECT_EQ(k->params[0]->slot, 0);
  EXPECT_EQ(k->params[1]->slot, 1);
  EXPECT_EQ(k->frame_slots, 9);
  std::vector<const VarDecl*> locals;
  for (const auto& st : k->body->body)
    if (st->kind == StmtKind::kDecl)
      locals.push_back(st->As<DeclStmt>()->vars[0].get());
  ASSERT_EQ(locals.size(), 4u);  // c, i, d, dyn
  EXPECT_EQ(locals[0]->slot, 2);
  EXPECT_EQ(locals[0]->shared_offset, 0);
  EXPECT_EQ(locals[1]->slot, 3);
  EXPECT_EQ(locals[1]->shared_offset, -1);
  EXPECT_EQ(locals[2]->slot, 5);  // after the inner `i`
  EXPECT_EQ(locals[2]->shared_offset, 8);
  EXPECT_EQ(locals[3]->shared_offset, -1);
  EXPECT_EQ(k->static_shared_bytes, 20u);  // `t` at 16
}

TEST(SemaTest, ArithmeticResultTypeRules) {
  auto i = Type::IntTy();
  auto f = Type::FloatTy();
  auto d = Type::Scalar(ScalarKind::kDouble);
  auto f4 = Type::Vector(ScalarKind::kFloat, 4);
  EXPECT_EQ(ArithmeticResultType(i, f)->scalar_kind(), ScalarKind::kFloat);
  EXPECT_EQ(ArithmeticResultType(f, d)->scalar_kind(), ScalarKind::kDouble);
  EXPECT_TRUE(ArithmeticResultType(f4, f)->is_vector());
  EXPECT_EQ(ArithmeticResultType(f4, f)->vector_width(), 4);
  // char + char promotes to int.
  auto c = Type::Scalar(ScalarKind::kChar);
  EXPECT_EQ(ArithmeticResultType(c, c)->scalar_kind(), ScalarKind::kInt);
}

TEST(SemaTest, FileScopeVarWithoutSpaceFails) {
  Analyzed("int naked_global;", Dialect::kCUDA, /*expect_ok=*/false);
}

TEST(SemaTest, TextureRefTyping) {
  auto tu = Analyzed(
      "texture<float, 1, cudaReadModeElementType> t1;"
      "__global__ void k(float* o) { o[0] = tex1Dfetch(t1, 3); }",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  auto* assign = f->body->body[0]->As<ExprStmt>()->expr->As<AssignExpr>();
  ASSERT_NE(assign->rhs->type, nullptr);
  EXPECT_EQ(assign->rhs->type->scalar_kind(), ScalarKind::kFloat);
}

/// The callee of the call in `k`'s `index`-th statement, `out[..] = CALL;`.
const CallExpr* CallInStmt(TranslationUnit& tu, size_t index) {
  auto* f = tu.FindFunction("k");
  auto* assign =
      f->body->body[index]->As<ExprStmt>()->expr->As<AssignExpr>();
  const Expr* rhs = assign->rhs.get();
  if (rhs->kind == ExprKind::kCast) rhs = rhs->As<CastExpr>()->operand.get();
  return rhs->As<CallExpr>();
}

TEST(SemaTest, BuiltinCallsResolvedOnce) {
  auto tu = Analyzed(
      "__kernel void k(__global float* o, __global int* i) {"
      "  i[0] = get_global_id(0);"
      "  o[0] = native_sqrt(o[1]);"
      "  i[1] = convert_int(o[2]);"
      "  o[1] = vload4(0, o).y;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  const CallExpr* c = CallInStmt(*tu, 0);
  EXPECT_EQ(c->builtin().op(), BuiltinOp::kGlobalId);
  EXPECT_EQ(c->type->scalar_kind(), ScalarKind::kSizeT);
  c = CallInStmt(*tu, 1);
  EXPECT_EQ(c->builtin().op(), BuiltinOp::kSqrt);
  EXPECT_STREQ(c->builtin().info->counterpart, "sqrtf");
  c = CallInStmt(*tu, 2);
  EXPECT_EQ(c->builtin().op(), BuiltinOp::kConvert);
  EXPECT_EQ(c->builtin().elem, ScalarKind::kInt);
  EXPECT_EQ(c->builtin().width, 0);
  EXPECT_EQ(c->type->scalar_kind(), ScalarKind::kInt);
}

TEST(SemaTest, CudaBuiltinsAndWrapperSpellings) {
  auto tu = Analyzed(
      "__global__ void k(float4* v, float* o) {"
      "  v[0] = make_float4(1.0f, 2.0f, 3.0f, 4.0f);"
      "  o[0] = sqrtf(threadIdx.x);"
      "  o[1] = __oc2cu_convert_float(blockIdx.y);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  const CallExpr* c = CallInStmt(*tu, 0);
  EXPECT_EQ(c->builtin().op(), BuiltinOp::kMakeVector);
  EXPECT_EQ(c->builtin().elem, ScalarKind::kFloat);
  EXPECT_EQ(c->builtin().width, 4);
  c = CallInStmt(*tu, 1);
  EXPECT_TRUE(c->builtin().info->float_result);
  EXPECT_EQ(c->type->scalar_kind(), ScalarKind::kFloat);
  const auto* idx = c->args[0]->As<MemberExpr>()->base->As<DeclRefExpr>();
  EXPECT_EQ(idx->builtin.op(), BuiltinOp::kThreadIdx);
  c = CallInStmt(*tu, 2);
  EXPECT_EQ(c->builtin().op(), BuiltinOp::kConvert);
  EXPECT_TRUE(c->builtin().wrapped);
}

TEST(SemaTest, DefinedFunctionShadowsBuiltin) {
  auto tu = Analyzed(
      "float mix(float a, float b, float t) { return a; }"
      "__kernel void k(__global float* o) { o[0] = mix(o[1], o[2], 0.5f); }",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  const CallExpr* c = CallInStmt(*tu, 0);
  EXPECT_FALSE(c->builtin());
  EXPECT_NE(c->callee->As<DeclRefExpr>()->function, nullptr);
}

TEST(SemaTest, BuiltinArityCheckedOnce) {
  DiagnosticEngine diags;
  auto tu = ParseTranslationUnit(
      "__kernel void k(__global float* o) { o[0] = clamp(o[1], 0.0f); }",
      {Dialect::kOpenCL}, diags);
  ASSERT_TRUE(tu.ok());
  EXPECT_FALSE(Analyze(**tu, {Dialect::kOpenCL}, diags).ok());
  EXPECT_NE(diags.ToString().find("builtin 'clamp' expects 3 arguments, got 2"),
            std::string::npos)
      << diags.ToString();
}

}  // namespace
}  // namespace bridgecl::lang
