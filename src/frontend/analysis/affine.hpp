// Affine (linear) forms over program variables, used to model array
// subscripts for the data-dependence tests.  A subscript like `2*i + j - 3`
// becomes {terms: {(i,2), (j,1)}, constant: -3}.  Anything the builder
// cannot prove linear is marked non-affine and later analyses degrade to
// "maybe" answers, exactly as a conservative front-end would.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "frontend/ast.hpp"

namespace hli::analysis {

using frontend::Expr;
using frontend::VarDecl;

class AffineExpr {
 public:
  /// The non-affine ("unknown") value.
  AffineExpr() = default;
  /// A constant.
  static AffineExpr constant(std::int64_t value);
  /// A single variable with coefficient 1.
  static AffineExpr variable(const VarDecl* var);

  [[nodiscard]] bool is_affine() const { return affine_; }
  [[nodiscard]] std::int64_t constant_part() const { return constant_; }
  [[nodiscard]] std::int64_t coefficient(const VarDecl* var) const;
  [[nodiscard]] bool is_constant() const { return affine_ && terms_.empty(); }
  /// Variables with non-zero coefficients, sorted by declaration id.
  [[nodiscard]] const std::vector<std::pair<const VarDecl*, std::int64_t>>& terms()
      const {
    return terms_;
  }

  /// True when the two forms are the same linear function.
  [[nodiscard]] bool equals(const AffineExpr& other) const;
  /// this - other, as a new form (non-affine if either side is).
  [[nodiscard]] AffineExpr minus(const AffineExpr& other) const;
  [[nodiscard]] AffineExpr plus(const AffineExpr& other) const;
  [[nodiscard]] AffineExpr scaled(std::int64_t factor) const;

  /// Substitutes var := var + delta (used by HLI maintenance when loop
  /// unrolling rewrites subscripts of duplicated bodies).
  [[nodiscard]] AffineExpr shifted(const VarDecl* var, std::int64_t delta) const;

  /// Substitutes var := value, eliminating the variable.
  [[nodiscard]] AffineExpr substituted(const VarDecl* var, std::int64_t value) const;

  [[nodiscard]] std::string to_string() const;

 private:
  void normalize();

  bool affine_ = false;
  std::int64_t constant_ = 0;
  // Sorted by VarDecl::id, no zero coefficients.
  std::vector<std::pair<const VarDecl*, std::int64_t>> terms_;
};

/// Builds the affine form of `expr`.  Returns a non-affine value for
/// anything outside the +, -, unary -, and constant-multiplication
/// fragment (calls, loads through memory, divisions, ...).
[[nodiscard]] AffineExpr build_affine(const Expr* expr);

}  // namespace hli::analysis
