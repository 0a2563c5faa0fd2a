// Hierarchical region discovery (paper §2.2).  A region is a program unit
// or a loop; regions nest.  The region tree is the skeleton both of the
// front-end analysis (dependence tests are run per loop region) and of the
// HLI region table itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "frontend/ast.hpp"

namespace hli::analysis {

using frontend::Expr;
using frontend::ForStmt;
using frontend::FuncDecl;
using frontend::Stmt;
using frontend::VarDecl;
using frontend::WhileStmt;

enum class RegionKind : std::uint8_t { Function, Loop };

/// Canonical affine loop description for `for (i = L; i < U; i += S)`
/// (also <=, and decrementing loops normalized to positive step form).
/// Only loops of this shape get distance-based LCDD entries; everything
/// else falls back to "maybe, unknown distance".
struct CanonicalLoop {
  VarDecl* induction = nullptr;
  /// Bounds when they are compile-time constants; nullopt for symbolic
  /// bounds (still canonical if the step is a known constant).
  std::optional<std::int64_t> lower;
  std::optional<std::int64_t> upper;  ///< Exclusive.
  std::int64_t step = 1;              ///< Always positive after normalization.
  bool reversed = false;              ///< True when source iterated downward.
};

class Region {
 public:
  Region(std::uint32_t id, RegionKind kind, Region* parent)
      : id_(id), kind_(kind), parent_(parent) {}

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] RegionKind kind() const { return kind_; }
  [[nodiscard]] bool is_loop() const { return kind_ == RegionKind::Loop; }
  [[nodiscard]] Region* parent() const { return parent_; }
  [[nodiscard]] const std::vector<Region*>& children() const { return children_; }

  /// Loop statement for loop regions (ForStmt or WhileStmt); null for the
  /// function region.
  Stmt* loop_stmt = nullptr;
  /// Present when the loop matched the canonical affine pattern.
  std::optional<CanonicalLoop> canonical;
  /// Depth in the tree; function region is depth 0.
  std::uint32_t depth = 0;
  /// Statements immediately inside this region (not inside sub-regions);
  /// used by item collection.
  std::vector<Stmt*> own_stmts;

  void add_child(Region* child) { children_.push_back(child); }

  /// True if `other` equals this region or is nested anywhere inside it.
  [[nodiscard]] bool encloses(const Region* other) const {
    for (const Region* r = other; r != nullptr; r = r->parent()) {
      if (r == this) return true;
    }
    return false;
  }

 private:
  std::uint32_t id_;
  RegionKind kind_;
  Region* parent_;
  std::vector<Region*> children_;
};

/// Region tree for one function.  Owns all Region nodes.
class RegionTree {
 public:
  [[nodiscard]] Region* root() const { return root_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Region>>& regions() const {
    return regions_;
  }
  /// Region whose loop_stmt is `stmt`, or null.
  [[nodiscard]] Region* region_for_loop(const Stmt* stmt) const {
    for (const auto& r : regions_) {
      if (r->loop_stmt == stmt) return r.get();
    }
    return nullptr;
  }

  /// All regions in pre-order (parents before children).
  [[nodiscard]] std::vector<Region*> preorder() const;
  /// All regions in post-order (children before parents) — the traversal
  /// order of TBLCONST's bottom-up propagation (paper §3.1.2).
  [[nodiscard]] std::vector<Region*> postorder() const;

  Region* make_region(RegionKind kind, Region* parent);

 private:
  std::vector<std::unique_ptr<Region>> regions_;
  Region* root_ = nullptr;
  std::uint32_t next_id_ = 1;
};

/// Builds the region tree of a function and canonicalizes its loops.
[[nodiscard]] RegionTree build_region_tree(FuncDecl& func);

/// Attempts to recognize `for (i = L; i < U; i += S)` and friends.
[[nodiscard]] std::optional<CanonicalLoop> canonicalize_loop(const ForStmt& loop);

/// True if any statement in `stmt`'s subtree assigns to `var` (including
/// ++/-- and compound assignment).  Used to decide whether a pointer or a
/// symbolic subscript term is invariant within a loop.
[[nodiscard]] bool subtree_modifies(const Stmt* stmt, const VarDecl* var);

}  // namespace hli::analysis
