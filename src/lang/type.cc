#include "lang/type.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>

namespace bridgecl::lang {

bool IsIntegerScalar(ScalarKind k) {
  switch (k) {
    case ScalarKind::kBool:
    case ScalarKind::kChar:
    case ScalarKind::kUChar:
    case ScalarKind::kShort:
    case ScalarKind::kUShort:
    case ScalarKind::kInt:
    case ScalarKind::kUInt:
    case ScalarKind::kLong:
    case ScalarKind::kULong:
    case ScalarKind::kLongLong:
    case ScalarKind::kULongLong:
    case ScalarKind::kSizeT:
      return true;
    default:
      return false;
  }
}

bool IsSignedScalar(ScalarKind k) {
  switch (k) {
    case ScalarKind::kChar:
    case ScalarKind::kShort:
    case ScalarKind::kInt:
    case ScalarKind::kLong:
    case ScalarKind::kLongLong:
      return true;
    default:
      return false;
  }
}

bool IsFloatScalar(ScalarKind k) {
  return k == ScalarKind::kFloat || k == ScalarKind::kDouble;
}

size_t ScalarByteSize(ScalarKind k) {
  switch (k) {
    case ScalarKind::kVoid: return 0;
    case ScalarKind::kBool: return 1;
    case ScalarKind::kChar:
    case ScalarKind::kUChar: return 1;
    case ScalarKind::kShort:
    case ScalarKind::kUShort: return 2;
    case ScalarKind::kInt:
    case ScalarKind::kUInt:
    case ScalarKind::kFloat: return 4;
    case ScalarKind::kLong:
    case ScalarKind::kULong:
    case ScalarKind::kLongLong:
    case ScalarKind::kULongLong:
    case ScalarKind::kDouble:
    case ScalarKind::kSizeT: return 8;
  }
  return 0;
}

const char* ScalarName(ScalarKind k) {
  switch (k) {
    case ScalarKind::kVoid: return "void";
    case ScalarKind::kBool: return "bool";
    case ScalarKind::kChar: return "char";
    case ScalarKind::kUChar: return "uchar";
    case ScalarKind::kShort: return "short";
    case ScalarKind::kUShort: return "ushort";
    case ScalarKind::kInt: return "int";
    case ScalarKind::kUInt: return "uint";
    case ScalarKind::kLong: return "long";
    case ScalarKind::kULong: return "ulong";
    case ScalarKind::kLongLong: return "longlong";
    case ScalarKind::kULongLong: return "ulonglong";
    case ScalarKind::kFloat: return "float";
    case ScalarKind::kDouble: return "double";
    case ScalarKind::kSizeT: return "size_t";
  }
  return "?";
}

const char* AddressSpaceName(AddressSpace s) {
  switch (s) {
    case AddressSpace::kPrivate: return "private";
    case AddressSpace::kLocal: return "local";
    case AddressSpace::kGlobal: return "global";
    case AddressSpace::kConstant: return "constant";
  }
  return "?";
}

namespace {
constexpr size_t kScalarKinds = static_cast<size_t>(ScalarKind::kSizeT) + 1;
constexpr int kVectorWidths[] = {1, 2, 3, 4, 8, 16};
}  // namespace

// Scalar and vector types are immortal: built once, never freed, and
// handed out as Ptrs with an empty owner (the aliasing constructor), so
// they have no control block and copying one never touches a refcount.
Type::Ptr Type::Scalar(ScalarKind k) {
  static const Ptr* const table = [] {
    auto* ptrs = new Ptr[kScalarKinds];
    for (size_t i = 0; i < kScalarKinds; ++i) {
      auto* t = new Type();
      t->kind_ = TypeKind::kScalar;
      t->scalar_ = static_cast<ScalarKind>(i);
      ptrs[i] = Ptr(Ptr(), t);
    }
    return ptrs;
  }();
  return table[static_cast<size_t>(k)];
}

Type::Ptr Type::Vector(ScalarKind elem, int width) {
  static const Ptr* const table = [] {
    auto* ptrs = new Ptr[kScalarKinds * std::size(kVectorWidths)];
    for (size_t i = 0; i < kScalarKinds; ++i)
      for (size_t w = 0; w < std::size(kVectorWidths); ++w) {
        auto* t = new Type();
        t->kind_ = TypeKind::kVector;
        t->scalar_ = static_cast<ScalarKind>(i);
        t->width_ = kVectorWidths[w];
        ptrs[i * std::size(kVectorWidths) + w] = Ptr(Ptr(), t);
      }
    return ptrs;
  }();
  size_t w = std::find(std::begin(kVectorWidths), std::end(kVectorWidths),
                       width) -
             std::begin(kVectorWidths);
  assert(w < std::size(kVectorWidths));
  return table[static_cast<size_t>(elem) * std::size(kVectorWidths) + w];
}

Type::Ptr Type::Pointer(Ptr pointee, AddressSpace pointee_space) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kPointer;
  t->elem_ = std::move(pointee);
  t->space_ = pointee_space;
  return t;
}

Type::Ptr Type::Array(Ptr elem, size_t extent) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kArray;
  t->elem_ = std::move(elem);
  t->extent_ = extent;
  return t;
}

Type::Ptr Type::Struct(const StructDecl* decl) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kStruct;
  t->struct_ = decl;
  return t;
}

Type::Ptr Type::Image(int dims) {
  assert(dims >= 1 && dims <= 3);
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kImage;
  t->dims_ = dims;
  return t;
}

Type::Ptr Type::Sampler() {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kSampler;
  return t;
}

Type::Ptr Type::Texture(ScalarKind elem, int elem_width, int dims) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kTexture;
  t->scalar_ = elem;
  t->width_ = elem_width;
  t->dims_ = dims;
  return t;
}

Type::Ptr Type::Named(std::string name) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kNamed;
  t->name_ = std::move(name);
  return t;
}

// StructLayout is computed in ast.cc (needs field list); forward here.
size_t StructByteSize(const StructDecl* decl);
size_t StructAlignment(const StructDecl* decl);

size_t Type::ByteSize() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarByteSize(scalar_);
    case TypeKind::kVector: {
      int w = width_ == 3 ? 4 : width_;
      return ScalarByteSize(scalar_) * static_cast<size_t>(w);
    }
    case TypeKind::kPointer:
    case TypeKind::kImage:
    case TypeKind::kSampler:
    case TypeKind::kTexture:
      return 8;
    case TypeKind::kArray:
      return elem_->ByteSize() * extent_;
    case TypeKind::kStruct:
      return StructByteSize(struct_);
    case TypeKind::kNamed:
      return 0;  // unresolved; sema substitutes before layout queries
  }
  return 0;
}

size_t Type::Alignment() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarByteSize(scalar_) == 0 ? 1 : ScalarByteSize(scalar_);
    case TypeKind::kVector: {
      int w = width_ == 3 ? 4 : width_;
      return ScalarByteSize(scalar_) * static_cast<size_t>(w);
    }
    case TypeKind::kPointer:
    case TypeKind::kImage:
    case TypeKind::kSampler:
    case TypeKind::kTexture:
      return 8;
    case TypeKind::kArray:
      return elem_->Alignment();
    case TypeKind::kStruct:
      return StructAlignment(struct_);
    case TypeKind::kNamed:
      return 1;
  }
  return 1;
}

std::string Type::ToString() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarName(scalar_);
    case TypeKind::kVector:
      return VectorTypeName(scalar_, width_);
    case TypeKind::kPointer: {
      std::string out;
      if (space_ != AddressSpace::kPrivate) {
        out += "__";
        out += AddressSpaceName(space_);
        out += " ";
      }
      out += elem_->ToString();
      out += "*";
      return out;
    }
    case TypeKind::kArray:
      return elem_->ToString() + "[" + std::to_string(extent_) + "]";
    case TypeKind::kStruct:
      return "struct";  // refined by printer which knows the name
    case TypeKind::kImage:
      return "image" + std::to_string(dims_) + "d_t";
    case TypeKind::kSampler:
      return "sampler_t";
    case TypeKind::kTexture:
      return "texture<" + std::string(ScalarName(scalar_)) + "," +
             std::to_string(dims_) + ">";
    case TypeKind::kNamed:
      return name_;
  }
  return "?";
}

bool operator==(const Type& a, const Type& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case TypeKind::kScalar:
      return a.scalar_ == b.scalar_;
    case TypeKind::kVector:
      return a.scalar_ == b.scalar_ && a.width_ == b.width_;
    case TypeKind::kPointer:
      return a.space_ == b.space_ && SameType(a.elem_, b.elem_);
    case TypeKind::kArray:
      return a.extent_ == b.extent_ && SameType(a.elem_, b.elem_);
    case TypeKind::kStruct:
      return a.struct_ == b.struct_;
    case TypeKind::kImage:
      return a.dims_ == b.dims_;
    case TypeKind::kSampler:
      return true;
    case TypeKind::kTexture:
      return a.scalar_ == b.scalar_ && a.width_ == b.width_ &&
             a.dims_ == b.dims_;
    case TypeKind::kNamed:
      return a.name_ == b.name_;
  }
  return false;
}

bool SameType(const Type::Ptr& a, const Type::Ptr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return *a == *b;
}

bool ParseVectorTypeName(const std::string& name, ScalarKind* elem,
                         int* width) {
  static const struct {
    const char* prefix;
    ScalarKind kind;
  } kPrefixes[] = {
      // Longest-match order matters: "ulonglong" before "ulong" etc.
      {"ulonglong", ScalarKind::kULongLong},
      {"longlong", ScalarKind::kLongLong},
      {"uchar", ScalarKind::kUChar},
      {"ushort", ScalarKind::kUShort},
      {"ulong", ScalarKind::kULong},
      {"uint", ScalarKind::kUInt},
      {"char", ScalarKind::kChar},
      {"short", ScalarKind::kShort},
      {"long", ScalarKind::kLong},
      {"int", ScalarKind::kInt},
      {"float", ScalarKind::kFloat},
      {"double", ScalarKind::kDouble},
  };
  for (const auto& p : kPrefixes) {
    std::string prefix = p.prefix;
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      std::string rest = name.substr(prefix.size());
      int w = 0;
      if (rest == "1") w = 1;
      else if (rest == "2") w = 2;
      else if (rest == "3") w = 3;
      else if (rest == "4") w = 4;
      else if (rest == "8") w = 8;
      else if (rest == "16") w = 16;
      else continue;
      *elem = p.kind;
      *width = w;
      return true;
    }
  }
  return false;
}

std::string VectorTypeName(ScalarKind elem, int width) {
  return std::string(ScalarName(elem)) + std::to_string(width);
}

}  // namespace bridgecl::lang
