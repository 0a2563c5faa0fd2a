#include "frontend/print.hpp"

#include <cstdio>
#include <string>

namespace hli::frontend {

namespace {

const char* binary_op_token(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Rem: return "%";
    case BinaryOp::And: return "&";
    case BinaryOp::Or: return "|";
    case BinaryOp::Xor: return "^";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::LogAnd: return "&&";
    case BinaryOp::LogOr: return "||";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
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

std::string float_token(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::string text = buf;
  // The lexer needs a '.' or an exponent to classify the literal as float.
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

class Printer {
 public:
  [[nodiscard]] std::string render(const Program& prog) {
    for (const VarDecl* global : prog.globals) {
      out_ += print_declarator(*global->type(), global->name());
      if (global->init != nullptr) {
        out_ += " = ";
        expr(*global->init);
      }
      out_ += ";\n";
    }
    for (const FuncDecl* func : prog.functions) {
      function(*func);
    }
    return std::move(out_);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

  void expr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::IntLiteral: {
        const auto& lit = static_cast<const IntLiteralExpr&>(e);
        // Parenthesize negatives: `a - -5` and subscript contexts stay
        // unambiguous without caring about the surrounding operator.
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
        const auto& ix = static_cast<const ArrayIndexExpr&>(e);
        expr(*ix.base);
        out_ += "[";
        expr(*ix.index);
        out_ += "]";
        return;
      }
      case ExprKind::Unary:
        unary(static_cast<const UnaryExpr&>(e));
        return;
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
      case ExprKind::Assign: {
        const auto& asg = static_cast<const AssignExpr&>(e);
        expr(*asg.lhs);
        out_ += " ";
        out_ += assign_op_token(asg.op);
        out_ += " ";
        expr(*asg.rhs);
        return;
      }
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
        out_ += "(";
        expr(*sel.cond);
        out_ += " ? ";
        expr(*sel.then_expr);
        out_ += " : ";
        expr(*sel.else_expr);
        out_ += ")";
        return;
      }
    }
  }

 private:
  void unary(const UnaryExpr& e) {
    switch (e.op) {
      case UnaryOp::Neg: out_ += "(-"; break;
      case UnaryOp::Not: out_ += "(!"; break;
      case UnaryOp::BitNot: out_ += "(~"; break;
      case UnaryOp::Deref: out_ += "(*"; break;
      case UnaryOp::AddrOf: out_ += "(&"; break;
      case UnaryOp::PreInc: out_ += "(++"; break;
      case UnaryOp::PreDec: out_ += "(--"; break;
      case UnaryOp::PostInc:
      case UnaryOp::PostDec:
        out_ += "(";
        expr(*e.operand);
        out_ += e.op == UnaryOp::PostInc ? "++)" : "--)";
        return;
    }
    expr(*e.operand);
    out_ += ")";
  }

  void function(const FuncDecl& func) {
    out_ += print_declarator(*func.return_type(), func.name()) + "(";
    for (std::size_t i = 0; i < func.params.size(); ++i) {
      if (i != 0) out_ += ", ";
      out_ += print_declarator(*func.params[i]->type(), func.params[i]->name());
    }
    out_ += ")";
    if (func.is_extern()) {
      out_ += ";\n";
      return;
    }
    out_ += " {\n";
    ++indent_;
    for (const Stmt* s : func.body->stmts) stmt(*s);
    --indent_;
    out_ += "}\n";
  }

  void stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::Decl: {
        const VarDecl& decl = *static_cast<const DeclStmt&>(s).decl;
        pad();
        out_ += print_declarator(*decl.type(), decl.name());
        if (decl.init != nullptr) {
          out_ += " = ";
          expr(*decl.init);
        }
        out_ += ";\n";
        return;
      }
      case StmtKind::Expr:
        pad();
        expr(*static_cast<const ExprStmt&>(s).expr);
        out_ += ";\n";
        return;
      case StmtKind::Block: {
        // Flatten: braces only come from control-flow statements, so the
        // reducer sees one brace pair per if/loop, never a bare block.
        for (const Stmt* inner : static_cast<const BlockStmt&>(s).stmts) {
          stmt(*inner);
        }
        return;
      }
      case StmtKind::If: {
        const auto& ifs = static_cast<const IfStmt&>(s);
        pad();
        out_ += "if (";
        expr(*ifs.cond);
        out_ += ") {\n";
        body_of(ifs.then_stmt);
        if (ifs.else_stmt != nullptr) {
          pad();
          out_ += "} else {\n";
          body_of(ifs.else_stmt);
        }
        pad();
        out_ += "}\n";
        return;
      }
      case StmtKind::While: {
        const auto& loop = static_cast<const WhileStmt&>(s);
        pad();
        out_ += "while (";
        expr(*loop.cond);
        out_ += ") {\n";
        body_of(loop.body);
        pad();
        out_ += "}\n";
        return;
      }
      case StmtKind::For: {
        const auto& loop = static_cast<const ForStmt&>(s);
        pad();
        out_ += "for (";
        for_init(loop.init);
        out_ += " ";
        if (loop.cond != nullptr) expr(*loop.cond);
        out_ += "; ";
        if (loop.step != nullptr) expr(*loop.step);
        out_ += ") {\n";
        body_of(loop.body);
        pad();
        out_ += "}\n";
        return;
      }
      case StmtKind::Return: {
        const auto& ret = static_cast<const ReturnStmt&>(s);
        pad();
        out_ += "return";
        if (ret.value != nullptr) {
          out_ += " ";
          expr(*ret.value);
        }
        out_ += ";\n";
        return;
      }
      case StmtKind::Break:
        pad();
        out_ += "break;\n";
        return;
      case StmtKind::Continue:
        pad();
        out_ += "continue;\n";
        return;
    }
  }

  /// For-init clause: a DeclStmt or ExprStmt rendered inline; both carry
  /// their own trailing ';' in the grammar.
  void for_init(const Stmt* init) {
    if (init == nullptr) {
      out_ += ";";
      return;
    }
    if (init->kind() == StmtKind::Decl) {
      const VarDecl& decl = *static_cast<const DeclStmt*>(init)->decl;
      out_ += print_declarator(*decl.type(), decl.name());
      if (decl.init != nullptr) {
        out_ += " = ";
        expr(*decl.init);
      }
      out_ += ";";
      return;
    }
    expr(*static_cast<const ExprStmt*>(init)->expr);
    out_ += ";";
  }

  void body_of(const Stmt* s) {
    ++indent_;
    if (s != nullptr) stmt(*s);
    --indent_;
  }

  void pad() { out_.append(static_cast<std::size_t>(indent_) * 2, ' '); }

  std::string out_;
  int indent_ = 0;
};

std::string type_keyword(const Type& type) {
  switch (type.kind()) {
    case TypeKind::Void: return "void";
    case TypeKind::Int: return "int";
    case TypeKind::Float: return "float";
    case TypeKind::Double: return "double";
    default: return "?";
  }
}

}  // namespace

std::string print_declarator(const Type& type, const std::string& name) {
  // Unwrap arrays (outermost dimension first), then pointers down to the
  // scalar base: `int (*)[..]`-style declarators never occur in mini-C.
  std::string dims;
  const Type* t = &type;
  while (t->is_array()) {
    dims.append("[").append(std::to_string(t->array_size())).append("]");
    t = t->element();
  }
  std::string stars;
  while (t->is_pointer()) {
    stars += "*";
    t = t->element();
  }
  return type_keyword(*t) + stars + " " + name + dims;
}

std::string print_program(const Program& prog) {
  return Printer().render(prog);
}

std::string print_expr(const Expr& expr) {
  Printer printer;
  printer.expr(expr);
  return printer.take();
}

}  // namespace hli::frontend
