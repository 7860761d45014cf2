"""Human-readable and SMT-LIB style rendering of expressions.

The default ``repr`` of nodes is a compact s-expression; this module adds an
infix pretty-printer for diagnostics/test-case reports and an SMT-LIB 2
emitter so constraint sets can be exported and cross-checked with an external
solver when one is available.
"""

from __future__ import annotations

from typing import Iterable

from .ast import (
    BVBinary,
    BVConcat,
    BVConst,
    BVExtend,
    BVExtract,
    BVIte,
    BVUnary,
    BVVar,
    BoolAnd,
    BoolConst,
    BoolExpr,
    BoolNot,
    BoolOr,
    Cmp,
    Expr,
)

__all__ = ["pretty", "to_smtlib", "smtlib_script"]

_INFIX = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "udiv": "/u",
    "urem": "%u",
    "sdiv": "/s",
    "srem": "%s",
    "bvand": "&",
    "bvor": "|",
    "bvxor": "^",
    "shl": "<<",
    "lshr": ">>u",
    "ashr": ">>s",
    "eq": "==",
    "ne": "!=",
    "ult": "<u",
    "ule": "<=u",
    "slt": "<s",
    "sle": "<=s",
}


def pretty(expr: Expr) -> str:
    """Infix rendering, e.g. ``(n3.drop0 == 1)``."""
    if isinstance(expr, BVConst):
        return str(expr.value)
    if isinstance(expr, BVVar):
        return expr.name
    if isinstance(expr, (BVBinary, Cmp)):
        return f"({pretty(expr.left)} {_INFIX[expr.op]} {pretty(expr.right)})"
    if isinstance(expr, BVUnary):
        sym = "-" if expr.op == "neg" else "~"
        return f"{sym}{pretty(expr.operand)}"
    if isinstance(expr, BVIte):
        return f"({pretty(expr.cond)} ? {pretty(expr.then)} : {pretty(expr.orelse)})"
    if isinstance(expr, BVExtract):
        hi = expr.low + expr.width - 1
        return f"{pretty(expr.operand)}[{hi}:{expr.low}]"
    if isinstance(expr, BVExtend):
        kind = "sext" if expr.signed else "zext"
        return f"{kind}{expr.width}({pretty(expr.operand)})"
    if isinstance(expr, BVConcat):
        return f"({pretty(expr.high)} . {pretty(expr.low_part)})"
    if isinstance(expr, BoolConst):
        return "true" if expr.value else "false"
    if isinstance(expr, BoolNot):
        return f"!{pretty(expr.operand)}"
    if isinstance(expr, BoolAnd):
        return "(" + " && ".join(pretty(o) for o in expr.operands) + ")"
    if isinstance(expr, BoolOr):
        return "(" + " || ".join(pretty(o) for o in expr.operands) + ")"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


_SMT_BIN = {
    "add": "bvadd",
    "sub": "bvsub",
    "mul": "bvmul",
    "udiv": "bvudiv",
    "urem": "bvurem",
    "sdiv": "bvsdiv",
    "srem": "bvsrem",
    "bvand": "bvand",
    "bvor": "bvor",
    "bvxor": "bvxor",
    "shl": "bvshl",
    "lshr": "bvlshr",
    "ashr": "bvashr",
}

_SMT_CMP = {
    "eq": "=",
    "ult": "bvult",
    "ule": "bvule",
    "slt": "bvslt",
    "sle": "bvsle",
}


def to_smtlib(expr: Expr) -> str:
    """SMT-LIB 2 term for ``expr``."""
    if isinstance(expr, BVConst):
        return f"(_ bv{expr.value} {expr.width})"
    if isinstance(expr, BVVar):
        return _smt_name(expr.name)
    if isinstance(expr, BVBinary):
        return f"({_SMT_BIN[expr.op]} {to_smtlib(expr.left)} {to_smtlib(expr.right)})"
    if isinstance(expr, BVUnary):
        fn = "bvneg" if expr.op == "neg" else "bvnot"
        return f"({fn} {to_smtlib(expr.operand)})"
    if isinstance(expr, Cmp):
        if expr.op == "ne":
            return f"(not (= {to_smtlib(expr.left)} {to_smtlib(expr.right)}))"
        return f"({_SMT_CMP[expr.op]} {to_smtlib(expr.left)} {to_smtlib(expr.right)})"
    if isinstance(expr, BVIte):
        return (
            f"(ite {to_smtlib(expr.cond)} {to_smtlib(expr.then)}"
            f" {to_smtlib(expr.orelse)})"
        )
    if isinstance(expr, BVExtract):
        hi = expr.low + expr.width - 1
        return f"((_ extract {hi} {expr.low}) {to_smtlib(expr.operand)})"
    if isinstance(expr, BVExtend):
        amount = expr.width - expr.operand.width
        fn = "sign_extend" if expr.signed else "zero_extend"
        return f"((_ {fn} {amount}) {to_smtlib(expr.operand)})"
    if isinstance(expr, BVConcat):
        return f"(concat {to_smtlib(expr.high)} {to_smtlib(expr.low_part)})"
    if isinstance(expr, BoolConst):
        return "true" if expr.value else "false"
    if isinstance(expr, BoolNot):
        return f"(not {to_smtlib(expr.operand)})"
    if isinstance(expr, BoolAnd):
        return "(and " + " ".join(to_smtlib(o) for o in expr.operands) + ")"
    if isinstance(expr, BoolOr):
        return "(or " + " ".join(to_smtlib(o) for o in expr.operands) + ")"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _smt_name(name: str) -> str:
    return "|" + name + "|" if any(c in name for c in ".:# ") else name


def smtlib_script(constraints: Iterable[BoolExpr]) -> str:
    """A complete ``(check-sat)`` script asserting all ``constraints``."""
    constraints = list(constraints)
    decls = {}
    for c in constraints:
        for v in c.variables():
            decls[v.name] = v.width
    lines = ["(set-logic QF_BV)"]
    for name in sorted(decls):
        lines.append(
            f"(declare-fun {_smt_name(name)} () (_ BitVec {decls[name]}))"
        )
    for c in constraints:
        lines.append(f"(assert {to_smtlib(c)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
