#ifndef QAGVIEW_SQL_EXPR_H_
#define QAGVIEW_SQL_EXPR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace qagview::sql {

/// \brief An expression bound to a schema: column names resolved to indices,
/// ready for repeated row-at-a-time evaluation.
///
/// Scalar expressions only — compiling an expression that still contains an
/// aggregate call fails (the executor rewrites aggregate calls into column
/// references over its intermediate group table first; see
/// RewriteCallsToColumns).
///
/// NULL semantics follow SQL: arithmetic and comparisons propagate NULL;
/// AND/OR use three-valued logic; WHERE/HAVING treat NULL as not-satisfied.
///
/// Compile types every node from the schema (columns) and the literal
/// values: arithmetic and unary minus need numeric operands, a comparison
/// needs two strings or two numbers, and AND/OR/NOT accept any type (by
/// truthiness). A mismatch returns InvalidArgument naming the expression,
/// so evaluation never meets an ill-typed operand.
class CompiledExpr {
 public:
  static Result<CompiledExpr> Compile(const Expr& expr,
                                      const storage::Schema& schema);

  /// Evaluates against one row of `table` (whose schema must be the one the
  /// expression was compiled against).
  storage::Value Eval(const storage::Table& table, int64_t row) const;

 private:
  struct Node {
    ExprKind kind;
    storage::ValueType type = storage::ValueType::kNull;  // static type
    storage::Value literal;         // kLiteral
    int column_index = -1;          // kColumnRef
    UnaryOp unary_op = UnaryOp::kNot;
    BinaryOp binary_op = BinaryOp::kEq;
    int left = -1;
    int right = -1;
  };

  Result<int> CompileNode(const Expr& expr, const storage::Schema& schema);
  storage::Value EvalNode(int index, const storage::Table& table,
                          int64_t row) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

/// Returns a copy of `expr` where every aggregate-call node is replaced by a
/// column reference named by the call's canonical text (e.g. "avg(rating)").
std::unique_ptr<Expr> RewriteCallsToColumns(const Expr& expr);

/// Appends (pointers to) every aggregate-call node in `expr`, outermost
/// first. Nested aggregates (a call inside a call) are rejected upstream.
void CollectCalls(const Expr& expr, std::vector<const Expr*>* calls);

}  // namespace qagview::sql

#endif  // QAGVIEW_SQL_EXPR_H_
