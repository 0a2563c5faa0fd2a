#include "frontend/analysis/affine.hpp"

#include <algorithm>

namespace hli::analysis {

using namespace frontend;

AffineExpr AffineExpr::constant(std::int64_t value) {
  AffineExpr e;
  e.affine_ = true;
  e.constant_ = value;
  return e;
}

AffineExpr AffineExpr::variable(const VarDecl* var) {
  AffineExpr e;
  e.affine_ = true;
  e.terms_.emplace_back(var, 1);
  return e;
}

std::int64_t AffineExpr::coefficient(const VarDecl* var) const {
  for (const auto& [decl, coeff] : terms_) {
    if (decl == var) return coeff;
  }
  return 0;
}

bool AffineExpr::equals(const AffineExpr& other) const {
  return affine_ && other.affine_ && constant_ == other.constant_ &&
         terms_ == other.terms_;
}

void AffineExpr::normalize() {
  std::sort(terms_.begin(), terms_.end(), [](const auto& a, const auto& b) {
    return a.first->id() < b.first->id();
  });
  // Merge duplicate variables and drop zero coefficients.
  std::vector<std::pair<const VarDecl*, std::int64_t>> merged;
  for (const auto& [decl, coeff] : terms_) {
    if (!merged.empty() && merged.back().first == decl) {
      merged.back().second += coeff;
    } else {
      merged.emplace_back(decl, coeff);
    }
  }
  std::erase_if(merged, [](const auto& t) { return t.second == 0; });
  terms_ = std::move(merged);
}

AffineExpr AffineExpr::plus(const AffineExpr& other) const {
  if (!affine_ || !other.affine_) return {};
  AffineExpr out;
  out.affine_ = true;
  out.constant_ = constant_ + other.constant_;
  out.terms_ = terms_;
  out.terms_.insert(out.terms_.end(), other.terms_.begin(), other.terms_.end());
  out.normalize();
  return out;
}

AffineExpr AffineExpr::scaled(std::int64_t factor) const {
  if (!affine_) return {};
  AffineExpr out;
  out.affine_ = true;
  out.constant_ = constant_ * factor;
  out.terms_ = terms_;
  for (auto& [decl, coeff] : out.terms_) coeff *= factor;
  out.normalize();
  return out;
}

AffineExpr AffineExpr::minus(const AffineExpr& other) const {
  return plus(other.scaled(-1));
}

AffineExpr AffineExpr::shifted(const VarDecl* var, std::int64_t delta) const {
  if (!affine_) return {};
  AffineExpr out = *this;
  out.constant_ += coefficient(var) * delta;
  return out;
}

AffineExpr AffineExpr::substituted(const VarDecl* var, std::int64_t value) const {
  if (!affine_) return {};
  AffineExpr out = *this;
  out.constant_ += coefficient(var) * value;
  std::erase_if(out.terms_, [var](const auto& t) { return t.first == var; });
  return out;
}

std::string AffineExpr::to_string() const {
  if (!affine_) return "<non-affine>";
  std::string out;
  for (const auto& [decl, coeff] : terms_) {
    if (!out.empty()) out += " + ";
    if (coeff == 1) {
      out += decl->name();
    } else {
      out += std::to_string(coeff) + "*" + decl->name();
    }
  }
  if (constant_ != 0 || out.empty()) {
    if (!out.empty()) out += " + ";
    out += std::to_string(constant_);
  }
  return out;
}

AffineExpr build_affine(const Expr* expr) {
  if (expr == nullptr) return {};
  switch (expr->kind()) {
    case ExprKind::IntLiteral:
      return AffineExpr::constant(static_cast<const IntLiteralExpr*>(expr)->value);
    case ExprKind::VarRef: {
      const auto* ref = static_cast<const VarRefExpr*>(expr);
      if (ref->decl == nullptr || !ref->decl->type()->is_int()) return {};
      // Address-taken scalars can be rewritten through pointers behind our
      // back, so their value is not a dependable symbol.
      if (ref->decl->address_taken()) return {};
      return AffineExpr::variable(ref->decl);
    }
    case ExprKind::Unary: {
      const auto* un = static_cast<const UnaryExpr*>(expr);
      if (un->op == UnaryOp::Neg) return build_affine(un->operand).scaled(-1);
      return {};
    }
    case ExprKind::Binary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      switch (bin->op) {
        case BinaryOp::Add:
          return build_affine(bin->lhs).plus(build_affine(bin->rhs));
        case BinaryOp::Sub:
          return build_affine(bin->lhs).minus(build_affine(bin->rhs));
        case BinaryOp::Mul: {
          const AffineExpr lhs = build_affine(bin->lhs);
          const AffineExpr rhs = build_affine(bin->rhs);
          if (lhs.is_constant()) return rhs.scaled(lhs.constant_part());
          if (rhs.is_constant()) return lhs.scaled(rhs.constant_part());
          return {};
        }
        default:
          return {};
      }
    }
    default:
      return {};
  }
}

}  // namespace hli::analysis
