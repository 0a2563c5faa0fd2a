#include "frontend/type.hpp"

namespace hli::frontend {

std::uint64_t Type::byte_size() const {
  switch (kind_) {
    case TypeKind::Void: return 0;
    case TypeKind::Int: return 4;
    case TypeKind::Float: return 4;
    case TypeKind::Double: return 8;
    case TypeKind::Pointer: return 8;
    case TypeKind::Array: return array_size_ * element_->byte_size();
  }
  return 0;
}

std::string Type::to_string() const {
  switch (kind_) {
    case TypeKind::Void: return "void";
    case TypeKind::Int: return "int";
    case TypeKind::Float: return "float";
    case TypeKind::Double: return "double";
    case TypeKind::Pointer: return element_->to_string() + "*";
    case TypeKind::Array: {
      // Print dimensions outside-in, matching C declarator order:
      // array<4, array<8, float>> renders as "float[4][8]".
      const Type* elem = this;
      std::string dims;
      while (elem->is_array()) {
        dims.append("[").append(std::to_string(elem->array_size())).append("]");
        elem = elem->element();
      }
      return elem->to_string() + dims;
    }
  }
  return "<bad type>";
}

TypeContext::TypeContext() {
  void_ = make(TypeKind::Void, nullptr, 0);
  int_ = make(TypeKind::Int, nullptr, 0);
  float_ = make(TypeKind::Float, nullptr, 0);
  double_ = make(TypeKind::Double, nullptr, 0);
}

const Type* TypeContext::make(TypeKind kind, const Type* element, std::uint64_t size) {
  storage_.push_back(std::unique_ptr<Type>(new Type(kind, element, size)));
  return storage_.back().get();
}

const Type* TypeContext::pointer_to(const Type* element) {
  for (const auto& t : storage_) {
    if (t->kind() == TypeKind::Pointer && t->element() == element) return t.get();
  }
  return make(TypeKind::Pointer, element, 0);
}

const Type* TypeContext::array_of(const Type* element, std::uint64_t count) {
  for (const auto& t : storage_) {
    if (t->kind() == TypeKind::Array && t->element() == element &&
        t->array_size() == count) {
      return t.get();
    }
  }
  return make(TypeKind::Array, element, count);
}

const Type* TypeContext::common_arithmetic(const Type* a, const Type* b) const {
  if (a->kind() == TypeKind::Double || b->kind() == TypeKind::Double) return double_;
  if (a->kind() == TypeKind::Float || b->kind() == TypeKind::Float) return float_;
  return int_;
}

}  // namespace hli::frontend
