#include "frontend_basic/print.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace hli::frontend_basic {

namespace {

using namespace frontend;

const char* binary_op_token(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Rem: return "MOD";
    case BinaryOp::And: return "AND";
    case BinaryOp::Or: return "OR";
    case BinaryOp::Xor: return "XOR";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::LogAnd: return "ANDALSO";
    case BinaryOp::LogOr: return "ORELSE";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "=";
    case BinaryOp::Ne: return "<>";
  }
  return "?";
}

const char* assign_op_token(AssignOp op) {
  switch (op) {
    case AssignOp::None: return "=";
    case AssignOp::Add: return "+=";
    case AssignOp::Sub: return "-=";
    case AssignOp::Mul: return "*=";
    case AssignOp::Div: return "/=";
  }
  return "=";
}

/// Same %.17g discipline as the C printer; the suffix-less form means a
/// SINGLE literal loses its precision flag on both sides identically.
std::string float_token(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::string text = buf;
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

[[noreturn]] void unsupported(const char* what) {
  throw support::CompileError(std::string("BASIC printer: ") + what +
                              " cannot be expressed in the BASIC dialect");
}

const char* type_keyword(const Type& type) {
  switch (type.kind()) {
    case TypeKind::Int: return "INTEGER";
    case TypeKind::Float: return "SINGLE";
    case TypeKind::Double: return "DOUBLE";
    default: unsupported("this type");
  }
}

class Printer {
 public:
  [[nodiscard]] std::string render(const Program& prog) {
    for (const VarDecl* global : prog.globals) {
      out_ += "DIM " + declarator(*global->type(), global->name());
      if (global->init != nullptr) {
        out_ += " = ";
        expr(*global->init);
      }
      out_ += "\n";
    }
    for (const FuncDecl* func : prog.functions) {
      function(*func);
    }
    return std::move(out_);
  }

 private:
  /// `name AS INTEGER` / `name(d1, d2) AS DOUBLE`; dimensions unwrap
  /// outermost first, matching the C declarator's `int a[d1][d2]`.
  std::string declarator(const Type& type, const std::string& name) {
    const Type* base = &type;
    std::string dims;
    while (base->is_array()) {
      if (!dims.empty()) dims += ", ";
      dims += std::to_string(base->array_size());
      base = base->element();
    }
    std::string text = name;
    if (!dims.empty()) text += "(" + dims + ")";
    return text + " AS " + type_keyword(*base);
  }

  void function(const FuncDecl& func) {
    const bool is_sub = func.return_type()->kind() == TypeKind::Void;
    if (func.is_extern()) out_ += "DECLARE ";
    out_ += is_sub ? "SUB " : "FUNCTION ";
    out_ += func.name() + "(";
    for (std::size_t i = 0; i < func.params.size(); ++i) {
      if (i != 0) out_ += ", ";
      out_ += declarator(*func.params[i]->type(), func.params[i]->name());
    }
    out_ += ")";
    if (!is_sub) {
      out_ += " AS ";
      out_ += type_keyword(*func.return_type());
    }
    out_ += "\n";
    if (func.is_extern()) return;
    ++indent_;
    for (const Stmt* s : func.body->stmts) stmt(*s);
    --indent_;
    out_ += is_sub ? "END SUB\n" : "END FUNCTION\n";
  }

  void stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::Decl: {
        const VarDecl& decl = *static_cast<const DeclStmt&>(s).decl;
        pad();
        out_ += "DIM " + declarator(*decl.type(), decl.name());
        if (decl.init != nullptr) {
          out_ += " = ";
          expr(*decl.init);
        }
        out_ += "\n";
        return;
      }
      case StmtKind::Expr:
        pad();
        statement_expr(*static_cast<const ExprStmt&>(s).expr);
        out_ += "\n";
        return;
      case StmtKind::Block: {
        // Flattened exactly like the C printer: braces only ever come
        // from control flow, so line counts stay aligned.
        for (const Stmt* inner : static_cast<const BlockStmt&>(s).stmts) {
          stmt(*inner);
        }
        return;
      }
      case StmtKind::If: {
        const auto& ifs = static_cast<const IfStmt&>(s);
        pad();
        out_ += "IF ";
        expr(*ifs.cond);
        out_ += " THEN\n";
        body_of(ifs.then_stmt);
        if (ifs.else_stmt != nullptr) {
          pad();
          out_ += "ELSE\n";
          body_of(ifs.else_stmt);
        }
        pad();
        out_ += "END IF\n";
        return;
      }
      case StmtKind::While: {
        const auto& loop = static_cast<const WhileStmt&>(s);
        pad();
        out_ += "DO WHILE ";
        expr(*loop.cond);
        out_ += "\n";
        loops_.push_back("DO");
        body_of(loop.body);
        loops_.pop_back();
        pad();
        out_ += "LOOP\n";
        return;
      }
      case StmtKind::For: {
        const auto& loop = static_cast<const ForStmt&>(s);
        pad();
        out_ += "FOR";
        if (loop.init != nullptr) {
          out_ += " ";
          for_init(*loop.init);
        }
        if (loop.cond != nullptr) {
          out_ += " WHILE ";
          expr(*loop.cond);
        }
        if (loop.step != nullptr) {
          out_ += " STEP ";
          statement_expr(*loop.step);
        }
        out_ += "\n";
        loops_.push_back("FOR");
        body_of(loop.body);
        loops_.pop_back();
        pad();
        out_ += "NEXT\n";
        return;
      }
      case StmtKind::Return: {
        const auto& ret = static_cast<const ReturnStmt&>(s);
        pad();
        out_ += "RETURN";
        if (ret.value != nullptr) {
          out_ += " ";
          expr(*ret.value);
        }
        out_ += "\n";
        return;
      }
      case StmtKind::Break:
        pad();
        out_ += "EXIT ";
        out_ += innermost_loop();
        out_ += "\n";
        return;
      case StmtKind::Continue:
        pad();
        out_ += "CONTINUE ";
        out_ += innermost_loop();
        out_ += "\n";
        return;
    }
  }

  [[nodiscard]] const char* innermost_loop() const {
    if (loops_.empty()) unsupported("break/continue outside a loop");
    return loops_.back();
  }

  /// FOR init clause.  A DeclStmt prints as `name = init` and re-parses
  /// as a fresh loop variable (the name is not in scope); an ExprStmt
  /// assignment prints identically and re-parses as a plain assignment
  /// because the variable IS in scope.  Both re-parses need the loop
  /// variable to be INTEGER, which is all the FOR grammar creates.
  void for_init(const Stmt& init) {
    if (init.kind() == StmtKind::Decl) {
      const VarDecl& decl = *static_cast<const DeclStmt&>(init).decl;
      if (decl.type()->kind() != TypeKind::Int) {
        unsupported("a non-INTEGER loop variable");
      }
      if (decl.init == nullptr) unsupported("a FOR variable without an init");
      out_ += decl.name() + " = ";
      expr(*decl.init);
      return;
    }
    statement_expr(*static_cast<const ExprStmt&>(init).expr);
  }

  /// Statement position: the only place assignments may appear (the
  /// BASIC `=` means equality everywhere inside an expression).
  void statement_expr(const Expr& e) {
    if (e.kind() == ExprKind::Assign) {
      const auto& asg = static_cast<const AssignExpr&>(e);
      expr(*asg.lhs);
      out_ += " ";
      out_ += assign_op_token(asg.op);
      out_ += " ";
      expr(*asg.rhs);
      return;
    }
    if (e.kind() == ExprKind::Call) {
      expr(e);
      return;
    }
    unsupported("a bare expression statement");
  }

  void expr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::IntLiteral: {
        const auto& lit = static_cast<const IntLiteralExpr&>(e);
        if (lit.value < 0) {
          out_.append("(").append(std::to_string(lit.value)).append(")");
        } else {
          out_ += std::to_string(lit.value);
        }
        return;
      }
      case ExprKind::FloatLiteral: {
        const auto& lit = static_cast<const FloatLiteralExpr&>(e);
        if (lit.value < 0) {
          out_.append("(").append(float_token(lit.value)).append(")");
        } else {
          out_ += float_token(lit.value);
        }
        return;
      }
      case ExprKind::VarRef:
        out_ += static_cast<const VarRefExpr&>(e).name;
        return;
      case ExprKind::ArrayIndex: {
        // Flatten the chain: (a[i])[j] prints as a(i, j).
        std::vector<const Expr*> indices;
        const Expr* base = &e;
        while (base->kind() == ExprKind::ArrayIndex) {
          const auto& ix = static_cast<const ArrayIndexExpr&>(*base);
          indices.push_back(ix.index);
          base = ix.base;
        }
        if (base->kind() != ExprKind::VarRef) {
          unsupported("a subscript on a non-variable base");
        }
        expr(*base);
        out_ += "(";
        for (std::size_t i = indices.size(); i-- > 0;) {
          expr(*indices[i]);
          if (i != 0) out_ += ", ";
        }
        out_ += ")";
        return;
      }
      case ExprKind::Unary: {
        const auto& un = static_cast<const UnaryExpr&>(e);
        switch (un.op) {
          case UnaryOp::Neg: out_ += "(-"; break;
          case UnaryOp::Not: out_ += "(NOT "; break;
          case UnaryOp::BitNot: out_ += "(BNOT "; break;
          default: unsupported("pointer or increment operators");
        }
        expr(*un.operand);
        out_ += ")";
        return;
      }
      case ExprKind::Binary: {
        const auto& bin = static_cast<const BinaryExpr&>(e);
        out_ += "(";
        expr(*bin.lhs);
        out_ += " ";
        out_ += binary_op_token(bin.op);
        out_ += " ";
        expr(*bin.rhs);
        out_ += ")";
        return;
      }
      case ExprKind::Assign:
        unsupported("an assignment nested inside an expression");
      case ExprKind::Call: {
        const auto& call = static_cast<const CallExpr&>(e);
        out_ += call.callee + "(";
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          if (i != 0) out_ += ", ";
          expr(*call.args[i]);
        }
        out_ += ")";
        return;
      }
      case ExprKind::Conditional: {
        const auto& sel = static_cast<const ConditionalExpr&>(e);
        out_ += "IIF(";
        expr(*sel.cond);
        out_ += ", ";
        expr(*sel.then_expr);
        out_ += ", ";
        expr(*sel.else_expr);
        out_ += ")";
        return;
      }
    }
  }

  void body_of(const Stmt* s) {
    ++indent_;
    if (s != nullptr) stmt(*s);
    --indent_;
  }

  void pad() { out_.append(static_cast<std::size_t>(indent_) * 2, ' '); }

  std::string out_;
  int indent_ = 0;
  std::vector<const char*> loops_;
};

}  // namespace

std::string print_basic(const Program& prog) { return Printer().render(prog); }

}  // namespace hli::frontend_basic
