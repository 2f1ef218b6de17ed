#ifndef QAGVIEW_SQL_AST_H_
#define QAGVIEW_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace qagview::sql {

enum class ExprKind {
  kLiteral,    // 42, 3.5, 'abc'
  kColumnRef,  // column name
  kUnary,      // NOT e, -e
  kBinary,     // e op e
  kCall,       // fn(args) or fn(*)
};

enum class UnaryOp { kNot, kNegate };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* BinaryOpToString(BinaryOp op);

/// \brief Expression tree node.
///
/// A single struct covers all node kinds (this is a compact dialect);
/// only the fields relevant to `kind` are meaningful.
struct Expr {
  ExprKind kind;

  storage::Value literal;              // kLiteral
  std::string column;                  // kColumnRef
  UnaryOp unary_op = UnaryOp::kNot;    // kUnary
  BinaryOp binary_op = BinaryOp::kEq;  // kBinary
  std::unique_ptr<Expr> left;          // kUnary operand / kBinary lhs
  std::unique_ptr<Expr> right;         // kBinary rhs
  std::string function;                // kCall, lower-cased
  std::vector<std::unique_ptr<Expr>> args;  // kCall arguments
  bool star_arg = false;               // kCall with '*' argument: count(*)

  static std::unique_ptr<Expr> Literal(storage::Value v);
  static std::unique_ptr<Expr> Column(std::string name);
  static std::unique_ptr<Expr> Unary(UnaryOp op, std::unique_ptr<Expr> e);
  static std::unique_ptr<Expr> Binary(BinaryOp op, std::unique_ptr<Expr> l,
                                      std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> Call(std::string fn,
                                    std::vector<std::unique_ptr<Expr>> args,
                                    bool star = false);

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  /// Canonical text form; used both for display and as the key matching
  /// aggregate calls between SELECT / HAVING / ORDER BY.
  std::string ToString() const;

  /// True if any node in the tree is a kCall (aggregate) node.
  bool ContainsCall() const;
};

/// One SELECT-list entry: expression plus optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  // empty if none

  /// Output column name: alias if set, else the expression's text form.
  std::string OutputName() const;
};

struct OrderByItem {
  std::string column;  // output-column name or alias
  bool descending = false;
};

/// Parsed form of the aggregate-query template the paper operates on:
///   SELECT <attrs>, agg(x) AS val FROM t [WHERE ...] GROUP BY <attrs>
///   [HAVING ...] [ORDER BY val DESC] [LIMIT n]
/// Plain (non-grouped) SELECTs are also supported for previews.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table_name;
  std::unique_ptr<Expr> where;   // nullable
  std::vector<std::string> group_by;
  std::unique_ptr<Expr> having;  // nullable
  std::vector<OrderByItem> order_by;
  int64_t limit = -1;            // -1 = no limit

  std::string ToString() const;
};

}  // namespace qagview::sql

#endif  // QAGVIEW_SQL_AST_H_
