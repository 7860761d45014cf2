"""Structural properties of the expression DAG: interning, hashing, walks."""

import pytest

from repro.expr import (
    add,
    and_,
    bv,
    clear_intern_cache,
    eq,
    false,
    intern_stats,
    mask,
    not_,
    or_,
    to_signed,
    to_unsigned,
    ule,
    ult,
    var,
)
from repro.expr import ast


class TestHelpers:
    def test_mask(self):
        assert mask(1) == 1
        assert mask(8) == 255
        assert mask(32) == 0xFFFFFFFF

    def test_to_signed_positive(self):
        assert to_signed(5, 8) == 5
        assert to_signed(127, 8) == 127

    def test_to_signed_negative(self):
        assert to_signed(255, 8) == -1
        assert to_signed(128, 8) == -128
        assert to_signed(0xFFFFFFFF, 32) == -1

    def test_to_signed_truncates_wide_input(self):
        assert to_signed(0x1FF, 8) == -1

    def test_to_unsigned_roundtrip(self):
        for value in (-128, -1, 0, 1, 127):
            assert to_signed(to_unsigned(value, 8), 8) == value


class TestInterning:
    def test_constants_are_interned(self):
        assert bv(42, 32) is bv(42, 32)

    def test_constants_distinguish_width(self):
        assert bv(42, 32) is not bv(42, 8)

    def test_constant_value_truncated(self):
        assert bv(256, 8).value == 0
        assert bv(-1, 8).value == 255

    def test_vars_are_interned(self):
        assert var("x", 32) is var("x", 32)
        assert var("x", 32) is not var("y", 32)

    def test_composite_interning(self):
        x, y = var("x"), var("y")
        assert add(x, y) is add(x, y)
        assert eq(x, y) is eq(x, y)

    def test_structural_equality_is_identity(self):
        x = var("x")
        e1 = add(x, bv(1))
        e2 = add(x, bv(1))
        assert e1 == e2 and e1 is e2

    def test_node_classes_use_identity_hashing(self):
        # Interning makes == identity, so a Python-level __hash__/__eq__
        # would only add a call to every dict and set operation.
        classes, pending = set(), [ast.Expr]
        while pending:
            cls = pending.pop()
            classes.add(cls)
            pending.extend(cls.__subclasses__())
        assert len(classes) >= 16  # Expr, BVExpr, BoolExpr + 13 node kinds
        for cls in classes:
            assert cls.__hash__ is object.__hash__, cls
            assert cls.__eq__ is object.__eq__, cls
            assert cls.__ne__ is object.__ne__, cls

    def test_intern_stats_grow(self):
        before = intern_stats()[0]
        var("totally_fresh_variable_name_xyz", 16)
        assert intern_stats()[0] == before + 1


@pytest.fixture
def isolated_intern_tables():
    """Let a test clear the intern tables, then put the originals back:
    nodes other tests hold at module level must stay the interned ones."""
    saved = dict(ast._INTERN), dict(ast._NEGATION)
    counters = ast._INTERN_HITS, ast._INTERN_MISSES
    yield
    for table, entries in zip((ast._INTERN, ast._NEGATION), saved):
        table.clear()
        table.update(entries)
    ast._INTERN_HITS, ast._INTERN_MISSES = counters


class TestNegationMemo:
    def test_negation_is_memoized(self):
        e = ult(var("x"), var("y"))
        assert not_(e) is not_(e)
        assert ast._NEGATION[e] is not_(e)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ult(var("x"), var("y")),
            lambda: eq(var("x"), bv(3)),
            lambda: or_(eq(var("x"), bv(1)), ult(var("y"), bv(2))),
            false,
        ],
    )
    def test_double_negation_is_identity(self, build):
        e = build()
        assert not_(not_(e)) is e

    def test_clear_drops_stale_negations(self, isolated_intern_tables):
        e = ult(var("x"), var("y"))
        stale = not_(e)
        clear_intern_cache()
        assert not ast._NEGATION
        # The old node's negation is rebuilt against the new table ...
        assert not_(e) is not stale
        assert not_(e) is ule(e.right, e.left)
        # ... and so is a rebuilt expression's.
        rebuilt = not_(ult(var("x"), var("y")))
        assert rebuilt is not stale
        assert rebuilt is ule(var("y"), var("x"))


class TestTraversal:
    def test_variables_of_leaf(self):
        x = var("x")
        assert x.variables() == frozenset([x])
        assert bv(3).variables() == frozenset()

    def test_variables_of_composite(self):
        x, y = var("x"), var("y")
        expr = and_(eq(x, bv(0)), ult(y, bv(10)))
        assert expr.variables() == frozenset([x, y])

    def test_walk_visits_each_node_once(self):
        x = var("x")
        shared = add(x, bv(1))
        expr = add(shared, shared)  # folded to (x+1)+(x+1) -> reassociated
        nodes = list(expr.walk())
        assert len(nodes) == len({id(n) for n in nodes})

    def test_size_counts_dag_nodes(self):
        x = var("x")
        expr = eq(add(x, bv(1)), bv(5))
        # eq, add-result (folded to x ... ) -- just require consistency
        assert expr.size() == len(list(expr.walk()))


class TestReprs:
    def test_const_repr(self):
        assert repr(bv(7, 8)) == "7#8"

    def test_var_repr(self):
        assert repr(var("n1.drop0", 1)) == "n1.drop0#1"

    def test_cmp_repr_mentions_op(self):
        x = var("x")
        assert "ult" in repr(ult(x, bv(5)))


class TestSortSeparation:
    def test_cmp_is_bool(self):
        assert eq(var("x"), bv(0)).is_bool

    def test_bv_is_not_bool(self):
        assert not add(var("x"), bv(1)).is_bool

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            add(var("a", 8), var("b", 16))
        with pytest.raises(ValueError):
            eq(var("a", 8), bv(0, 32))

    def test_bool_const_identity(self):
        from repro.expr import false, true

        assert true() is true()
        assert false() is not true()
