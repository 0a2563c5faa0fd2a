#include "frontend/analysis/region_tree.hpp"

namespace hli::analysis {

using namespace frontend;

std::vector<Region*> RegionTree::preorder() const {
  std::vector<Region*> out;
  std::vector<Region*> stack{root_};
  while (!stack.empty()) {
    Region* r = stack.back();
    stack.pop_back();
    out.push_back(r);
    const auto& kids = r->children();
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::vector<Region*> RegionTree::postorder() const {
  std::vector<Region*> pre = preorder();
  // Reversing a preorder that pushed children right-to-left yields a valid
  // postorder only for the parent-after-children property we need; rebuild
  // properly via recursion instead to keep sibling order stable.
  std::vector<Region*> out;
  struct Walker {
    std::vector<Region*>& out;
    void walk(Region* r) {
      for (Region* c : r->children()) walk(c);
      out.push_back(r);
    }
  } walker{out};
  walker.walk(root_);
  (void)pre;
  return out;
}

Region* RegionTree::make_region(RegionKind kind, Region* parent) {
  regions_.push_back(std::make_unique<Region>(next_id_++, kind, parent));
  Region* r = regions_.back().get();
  if (parent != nullptr) {
    parent->add_child(r);
    r->depth = parent->depth + 1;
  } else {
    root_ = r;
  }
  return r;
}

namespace {

/// Matches `i = <const>` or `i = <expr>`; returns the induction candidate.
VarDecl* init_induction_var(const Stmt* init, std::optional<std::int64_t>& lower) {
  lower.reset();
  if (init == nullptr) return nullptr;
  const Expr* expr = nullptr;
  if (init->kind() == StmtKind::Expr) {
    expr = static_cast<const ExprStmt*>(init)->expr;
  } else if (init->kind() == StmtKind::Decl) {
    const auto* decl_stmt = static_cast<const DeclStmt*>(init);
    if (decl_stmt->decl->init != nullptr) {
      if (decl_stmt->decl->init->kind() == ExprKind::IntLiteral) {
        lower = static_cast<const IntLiteralExpr*>(decl_stmt->decl->init)->value;
      }
      return decl_stmt->decl;
    }
    return nullptr;
  }
  if (expr == nullptr || expr->kind() != ExprKind::Assign) return nullptr;
  const auto* assign = static_cast<const AssignExpr*>(expr);
  if (assign->op != AssignOp::None) return nullptr;
  if (assign->lhs->kind() != ExprKind::VarRef) return nullptr;
  if (assign->rhs->kind() == ExprKind::IntLiteral) {
    lower = static_cast<const IntLiteralExpr*>(assign->rhs)->value;
  }
  return static_cast<const VarRefExpr*>(assign->lhs)->decl;
}

/// Matches `i < U`, `i <= U`, `i > L`, `i >= L` against the induction var.
bool match_bound(const Expr* cond, const VarDecl* ind, bool& upward,
                 std::optional<std::int64_t>& bound, bool& inclusive) {
  if (cond == nullptr || cond->kind() != ExprKind::Binary) return false;
  const auto* bin = static_cast<const BinaryExpr*>(cond);
  const Expr* lhs = bin->lhs;
  const Expr* rhs = bin->rhs;
  if (lhs->kind() != ExprKind::VarRef ||
      static_cast<const VarRefExpr*>(lhs)->decl != ind) {
    return false;
  }
  switch (bin->op) {
    case BinaryOp::Lt: upward = true; inclusive = false; break;
    case BinaryOp::Le: upward = true; inclusive = true; break;
    case BinaryOp::Gt: upward = false; inclusive = false; break;
    case BinaryOp::Ge: upward = false; inclusive = true; break;
    default: return false;
  }
  bound.reset();
  if (rhs->kind() == ExprKind::IntLiteral) {
    bound = static_cast<const IntLiteralExpr*>(rhs)->value;
  }
  return true;
}

/// Matches `i++`, `++i`, `i += c`, `i -= c`, `i--`, `i = i + c`.
bool match_step(const Expr* step, const VarDecl* ind, std::int64_t& delta) {
  if (step == nullptr) return false;
  if (step->kind() == ExprKind::Unary) {
    const auto* un = static_cast<const UnaryExpr*>(step);
    if (un->operand->kind() != ExprKind::VarRef ||
        static_cast<const VarRefExpr*>(un->operand)->decl != ind) {
      return false;
    }
    switch (un->op) {
      case UnaryOp::PreInc:
      case UnaryOp::PostInc: delta = 1; return true;
      case UnaryOp::PreDec:
      case UnaryOp::PostDec: delta = -1; return true;
      default: return false;
    }
  }
  if (step->kind() != ExprKind::Assign) return false;
  const auto* assign = static_cast<const AssignExpr*>(step);
  if (assign->lhs->kind() != ExprKind::VarRef ||
      static_cast<const VarRefExpr*>(assign->lhs)->decl != ind) {
    return false;
  }
  if (assign->op == AssignOp::Add || assign->op == AssignOp::Sub) {
    if (assign->rhs->kind() != ExprKind::IntLiteral) return false;
    delta = static_cast<const IntLiteralExpr*>(assign->rhs)->value;
    if (assign->op == AssignOp::Sub) delta = -delta;
    return true;
  }
  if (assign->op == AssignOp::None && assign->rhs->kind() == ExprKind::Binary) {
    const auto* bin = static_cast<const BinaryExpr*>(assign->rhs);
    if (bin->op != BinaryOp::Add && bin->op != BinaryOp::Sub) return false;
    if (bin->lhs->kind() != ExprKind::VarRef ||
        static_cast<const VarRefExpr*>(bin->lhs)->decl != ind) {
      return false;
    }
    if (bin->rhs->kind() != ExprKind::IntLiteral) return false;
    delta = static_cast<const IntLiteralExpr*>(bin->rhs)->value;
    if (bin->op == BinaryOp::Sub) delta = -delta;
    return true;
  }
  return false;
}

/// True if the loop body re-assigns the induction variable (which would
/// invalidate the canonical form).
bool body_modifies(const Stmt* stmt, const VarDecl* ind);

bool expr_modifies(const Expr* expr, const VarDecl* ind) {
  if (expr == nullptr) return false;
  switch (expr->kind()) {
    case ExprKind::Assign: {
      const auto* assign = static_cast<const AssignExpr*>(expr);
      if (assign->lhs->kind() == ExprKind::VarRef &&
          static_cast<const VarRefExpr*>(assign->lhs)->decl == ind) {
        return true;
      }
      return expr_modifies(assign->lhs, ind) || expr_modifies(assign->rhs, ind);
    }
    case ExprKind::Unary: {
      const auto* un = static_cast<const UnaryExpr*>(expr);
      const bool is_mutation = un->op == UnaryOp::PreInc || un->op == UnaryOp::PreDec ||
                               un->op == UnaryOp::PostInc || un->op == UnaryOp::PostDec;
      if (is_mutation && un->operand->kind() == ExprKind::VarRef &&
          static_cast<const VarRefExpr*>(un->operand)->decl == ind) {
        return true;
      }
      // Address-taken induction variables are disqualified elsewhere via
      // VarDecl::address_taken.
      return expr_modifies(un->operand, ind);
    }
    case ExprKind::Binary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      return expr_modifies(bin->lhs, ind) || expr_modifies(bin->rhs, ind);
    }
    case ExprKind::ArrayIndex: {
      const auto* idx = static_cast<const ArrayIndexExpr*>(expr);
      return expr_modifies(idx->base, ind) || expr_modifies(idx->index, ind);
    }
    case ExprKind::Call: {
      const auto* call = static_cast<const CallExpr*>(expr);
      for (const Expr* arg : call->args) {
        if (expr_modifies(arg, ind)) return true;
      }
      return false;
    }
    case ExprKind::Conditional: {
      const auto* cond = static_cast<const ConditionalExpr*>(expr);
      return expr_modifies(cond->cond, ind) || expr_modifies(cond->then_expr, ind) ||
             expr_modifies(cond->else_expr, ind);
    }
    default:
      return false;
  }
}

bool body_modifies(const Stmt* stmt, const VarDecl* ind) {
  if (stmt == nullptr) return false;
  switch (stmt->kind()) {
    case StmtKind::Expr:
      return expr_modifies(static_cast<const ExprStmt*>(stmt)->expr, ind);
    case StmtKind::Decl: {
      const auto* decl = static_cast<const DeclStmt*>(stmt);
      return expr_modifies(decl->decl->init, ind);
    }
    case StmtKind::Block: {
      const auto* block = static_cast<const BlockStmt*>(stmt);
      for (const Stmt* s : block->stmts) {
        if (body_modifies(s, ind)) return true;
      }
      return false;
    }
    case StmtKind::If: {
      const auto* ifs = static_cast<const IfStmt*>(stmt);
      return expr_modifies(ifs->cond, ind) || body_modifies(ifs->then_stmt, ind) ||
             body_modifies(ifs->else_stmt, ind);
    }
    case StmtKind::While: {
      const auto* loop = static_cast<const WhileStmt*>(stmt);
      return expr_modifies(loop->cond, ind) || body_modifies(loop->body, ind);
    }
    case StmtKind::For: {
      const auto* loop = static_cast<const ForStmt*>(stmt);
      return body_modifies(loop->init, ind) || expr_modifies(loop->cond, ind) ||
             expr_modifies(loop->step, ind) || body_modifies(loop->body, ind);
    }
    case StmtKind::Return:
      return expr_modifies(static_cast<const ReturnStmt*>(stmt)->value, ind);
    case StmtKind::Break:
    case StmtKind::Continue:
      return false;
  }
  return false;
}

}  // namespace

bool subtree_modifies(const Stmt* stmt, const VarDecl* var) {
  return body_modifies(stmt, var);
}

std::optional<CanonicalLoop> canonicalize_loop(const ForStmt& loop) {
  std::optional<std::int64_t> lower;
  VarDecl* ind = init_induction_var(loop.init, lower);
  if (ind == nullptr || !ind->type()->is_int() || ind->address_taken()) {
    return std::nullopt;
  }
  bool upward = true;
  bool inclusive = false;
  std::optional<std::int64_t> bound;
  if (!match_bound(loop.cond, ind, upward, bound, inclusive)) return std::nullopt;
  std::int64_t delta = 0;
  if (!match_step(loop.step, ind, delta) || delta == 0) return std::nullopt;
  if (upward != (delta > 0)) return std::nullopt;  // Non-terminating shape.
  if (body_modifies(loop.body, ind)) return std::nullopt;

  CanonicalLoop canon;
  canon.induction = ind;
  if (delta > 0) {
    canon.step = delta;
    canon.lower = lower;
    canon.upper = bound;
    if (canon.upper && inclusive) canon.upper = *canon.upper + 1;
  } else {
    // Normalize `for (i = H; i > L; i--)` to positive-step orientation; the
    // LCDD direction normalization (paper §2.2.3) makes the sign of the
    // source order irrelevant as long as distances stay positive.
    canon.step = -delta;
    canon.reversed = true;
    canon.upper = lower ? std::optional<std::int64_t>(*lower + 1) : std::nullopt;
    canon.lower = bound;
    if (canon.lower && !inclusive) canon.lower = *canon.lower + 1;
  }
  return canon;
}

namespace {

class TreeBuilder {
 public:
  explicit TreeBuilder(RegionTree& tree) : tree_(tree) {}

  void walk(Stmt* stmt, Region* current) {
    if (stmt == nullptr) return;
    switch (stmt->kind()) {
      case StmtKind::Block: {
        auto* block = static_cast<BlockStmt*>(stmt);
        for (Stmt* s : block->stmts) walk(s, current);
        return;
      }
      case StmtKind::If: {
        current->own_stmts.push_back(stmt);
        auto* ifs = static_cast<IfStmt*>(stmt);
        walk(ifs->then_stmt, current);
        walk(ifs->else_stmt, current);
        return;
      }
      case StmtKind::While: {
        current->own_stmts.push_back(stmt);
        auto* loop = static_cast<WhileStmt*>(stmt);
        Region* region = tree_.make_region(RegionKind::Loop, current);
        region->loop_stmt = stmt;
        walk(loop->body, region);
        return;
      }
      case StmtKind::For: {
        current->own_stmts.push_back(stmt);
        auto* loop = static_cast<ForStmt*>(stmt);
        Region* region = tree_.make_region(RegionKind::Loop, current);
        region->loop_stmt = stmt;
        region->canonical = canonicalize_loop(*loop);
        // The init statement executes once, before the loop: it belongs to
        // the parent region.  Condition and step run every iteration.
        if (loop->init != nullptr) current->own_stmts.push_back(loop->init);
        walk(loop->body, region);
        return;
      }
      default:
        current->own_stmts.push_back(stmt);
        return;
    }
  }

 private:
  RegionTree& tree_;
};

}  // namespace

RegionTree build_region_tree(FuncDecl& func) {
  RegionTree tree;
  Region* root = tree.make_region(RegionKind::Function, nullptr);
  if (func.body != nullptr) {
    TreeBuilder builder(tree);
    builder.walk(func.body, root);
  }
  return tree;
}

}  // namespace hli::analysis
