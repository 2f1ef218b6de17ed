#include "sql/expr.h"

#include <cmath>

#include "common/string_util.h"

namespace qagview::sql {

using storage::Value;
using storage::ValueType;

Result<CompiledExpr> CompiledExpr::Compile(const Expr& expr,
                                           const storage::Schema& schema) {
  CompiledExpr compiled;
  QAG_ASSIGN_OR_RETURN(compiled.root_, compiled.CompileNode(expr, schema));
  return compiled;
}

namespace {

// kNull is the type of a NULL literal only (columns are never NULL-typed);
// it matches any operand, as the NULL it stands for propagates.
bool MaybeNumeric(ValueType type) { return type != ValueType::kString; }

bool Comparable(ValueType a, ValueType b) {
  if (a == ValueType::kNull || b == ValueType::kNull) return true;
  return (a == ValueType::kString) == (b == ValueType::kString);
}

Status TypeMismatch(const Expr& expr, const std::string& what) {
  return Status::InvalidArgument(
      StrCat("type mismatch in ", expr.ToString(), ": ", what));
}

}  // namespace

Result<int> CompiledExpr::CompileNode(const Expr& expr,
                                      const storage::Schema& schema) {
  Node node;
  node.kind = expr.kind;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      node.literal = expr.literal;
      node.type = expr.literal.type();
      break;
    case ExprKind::kColumnRef: {
      QAG_ASSIGN_OR_RETURN(node.column_index,
                           schema.GetFieldIndex(expr.column));
      node.type = schema.field(node.column_index).type;
      break;
    }
    case ExprKind::kUnary: {
      node.unary_op = expr.unary_op;
      QAG_ASSIGN_OR_RETURN(node.left, CompileNode(*expr.left, schema));
      const ValueType operand = nodes_[static_cast<size_t>(node.left)].type;
      if (expr.unary_op == UnaryOp::kNot) {
        node.type = ValueType::kInt64;
      } else if (MaybeNumeric(operand)) {
        node.type = operand;
      } else {
        return TypeMismatch(
            expr, StrCat("unary minus needs a numeric operand, got ",
                         ValueTypeToString(operand)));
      }
      break;
    }
    case ExprKind::kBinary: {
      node.binary_op = expr.binary_op;
      QAG_ASSIGN_OR_RETURN(node.left, CompileNode(*expr.left, schema));
      QAG_ASSIGN_OR_RETURN(node.right, CompileNode(*expr.right, schema));
      const ValueType lhs = nodes_[static_cast<size_t>(node.left)].type;
      const ValueType rhs = nodes_[static_cast<size_t>(node.right)].type;
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (!MaybeNumeric(lhs) || !MaybeNumeric(rhs)) {
            return TypeMismatch(
                expr, StrCat("operator ", BinaryOpToString(expr.binary_op),
                             " needs numeric operands, got ",
                             ValueTypeToString(lhs), " and ",
                             ValueTypeToString(rhs)));
          }
          // Numeric; the checks only tell numbers from strings, so INT64
          // vs DOUBLE (decided per row by Eval) need not be tracked.
          node.type = ValueType::kDouble;
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (!Comparable(lhs, rhs)) {
            return TypeMismatch(expr, StrCat("cannot compare ",
                                             ValueTypeToString(lhs), " with ",
                                             ValueTypeToString(rhs)));
          }
          node.type = ValueType::kInt64;
          break;
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          node.type = ValueType::kInt64;
          break;
      }
      break;
    }
    case ExprKind::kCall:
      return Status::InvalidArgument(
          StrCat("aggregate call ", expr.ToString(),
                 " is not allowed in a scalar context"));
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Value CompiledExpr::Eval(const storage::Table& table, int64_t row) const {
  return EvalNode(root_, table, row);
}

namespace {

// Three-valued logic: -1 = NULL/unknown, 0 = false, 1 = true.
int Truth(const Value& v) {
  if (v.is_null()) return -1;
  return v.IsTruthy() ? 1 : 0;
}

Value TruthToValue(int t) {
  if (t < 0) return Value::Null();
  return Value::Int(t);
}

}  // namespace

Value CompiledExpr::EvalNode(int index, const storage::Table& table,
                             int64_t row) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  switch (node.kind) {
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kColumnRef:
      return table.Get(row, node.column_index);
    case ExprKind::kUnary: {
      Value operand = EvalNode(node.left, table, row);
      if (node.unary_op == UnaryOp::kNegate) {
        if (operand.is_null()) return Value::Null();
        if (operand.type() == ValueType::kInt64) {
          return Value::Int(-operand.as_int());
        }
        return Value::Real(-operand.ToDouble());
      }
      // NOT with three-valued logic.
      int t = Truth(operand);
      return t < 0 ? Value::Null() : Value::Int(1 - t);
    }
    case ExprKind::kBinary: {
      // AND/OR need short-circuit-aware three-valued logic.
      if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
        int a = Truth(EvalNode(node.left, table, row));
        if (node.binary_op == BinaryOp::kAnd && a == 0) return Value::Int(0);
        if (node.binary_op == BinaryOp::kOr && a == 1) return Value::Int(1);
        int b = Truth(EvalNode(node.right, table, row));
        if (node.binary_op == BinaryOp::kAnd) {
          if (b == 0) return Value::Int(0);
          return TruthToValue((a < 0 || b < 0) ? -1 : 1);
        }
        if (b == 1) return Value::Int(1);
        return TruthToValue((a < 0 || b < 0) ? -1 : 0);
      }

      Value lhs = EvalNode(node.left, table, row);
      Value rhs = EvalNode(node.right, table, row);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();

      switch (node.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          if (lhs.type() == ValueType::kInt64 &&
              rhs.type() == ValueType::kInt64) {
            int64_t a = lhs.as_int();
            int64_t b = rhs.as_int();
            switch (node.binary_op) {
              case BinaryOp::kAdd: return Value::Int(a + b);
              case BinaryOp::kSub: return Value::Int(a - b);
              default: return Value::Int(a * b);
            }
          }
          double a = lhs.ToDouble();
          double b = rhs.ToDouble();
          switch (node.binary_op) {
            case BinaryOp::kAdd: return Value::Real(a + b);
            case BinaryOp::kSub: return Value::Real(a - b);
            default: return Value::Real(a * b);
          }
        }
        case BinaryOp::kDiv: {
          double b = rhs.ToDouble();
          if (b == 0.0) return Value::Null();  // SQL: division by zero
          return Value::Real(lhs.ToDouble() / b);
        }
        case BinaryOp::kMod: {
          if (lhs.type() == ValueType::kInt64 &&
              rhs.type() == ValueType::kInt64) {
            int64_t b = rhs.as_int();
            if (b == 0) return Value::Null();
            return Value::Int(lhs.as_int() % b);
          }
          double b = rhs.ToDouble();
          if (b == 0.0) return Value::Null();
          return Value::Real(std::fmod(lhs.ToDouble(), b));
        }
        case BinaryOp::kEq: return Value::Bool(lhs.Compare(rhs) == 0);
        case BinaryOp::kNe: return Value::Bool(lhs.Compare(rhs) != 0);
        case BinaryOp::kLt: return Value::Bool(lhs.Compare(rhs) < 0);
        case BinaryOp::kLe: return Value::Bool(lhs.Compare(rhs) <= 0);
        case BinaryOp::kGt: return Value::Bool(lhs.Compare(rhs) > 0);
        case BinaryOp::kGe: return Value::Bool(lhs.Compare(rhs) >= 0);
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          break;  // handled above
      }
      QAG_LOG(Fatal) << "unreachable binary op";
      return Value::Null();
    }
    case ExprKind::kCall:
      QAG_LOG(Fatal) << "call node survived compilation";
      return Value::Null();
  }
  return Value::Null();
}

std::unique_ptr<Expr> RewriteCallsToColumns(const Expr& expr) {
  if (expr.kind == ExprKind::kCall) {
    return Expr::Column(expr.ToString());
  }
  auto copy = expr.Clone();
  if (expr.left) copy->left = RewriteCallsToColumns(*expr.left);
  if (expr.right) copy->right = RewriteCallsToColumns(*expr.right);
  copy->args.clear();
  for (const auto& a : expr.args) {
    copy->args.push_back(RewriteCallsToColumns(*a));
  }
  return copy;
}

void CollectCalls(const Expr& expr, std::vector<const Expr*>* calls) {
  if (expr.kind == ExprKind::kCall) {
    calls->push_back(&expr);
    return;  // nested calls are rejected by the executor
  }
  if (expr.left) CollectCalls(*expr.left, calls);
  if (expr.right) CollectCalls(*expr.right, calls);
  for (const auto& a : expr.args) CollectCalls(*a, calls);
}

}  // namespace qagview::sql
