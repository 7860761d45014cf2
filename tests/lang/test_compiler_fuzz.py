"""Differential fuzzing of the NSL compiler + VM.

Hypothesis generates random expression trees; each is rendered to NSL
source, compiled, executed concretely in the VM, and compared against a
reference evaluator implementing C-on-32-bit semantics directly in Python.
Any miscompilation (precedence, codegen, masking, signedness) shows up as
a value mismatch.

Every program also runs on the unfused base ISA (``fuse_ops=False``):
superinstructions must give the same result, instruction count and
visited pcs.  The loop form (``while`` + ``+=``) is the one that makes
the compare+branch and load/inc/store fusions fire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import compile_source
from repro.lang.bytecode import Op
from repro.vm import Executor

MASK = 0xFFFFFFFF


def _signed(value):
    return value - (1 << 32) if value >= (1 << 31) else value


def _sdiv(a, b):
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & MASK


def _srem(a, b):
    sa, sb = _signed(a), _signed(b)
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) & MASK


class Node:
    def __init__(self, text, value):
        self.text = text
        self.value = value & MASK


_BINOPS = {
    "+": lambda a, b: (a + b) & MASK,
    "-": lambda a, b: (a - b) & MASK,
    "*": lambda a, b: (a * b) & MASK,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: 0 if (b & 31) != b else (a << b) & MASK,  # guarded below
    ">>": lambda a, b: (_signed(a) >> min(b, 31)) & MASK,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(_signed(a) < _signed(b)),
    "<=": lambda a, b: int(_signed(a) <= _signed(b)),
    ">": lambda a, b: int(_signed(a) > _signed(b)),
    ">=": lambda a, b: int(_signed(a) >= _signed(b)),
}


@st.composite
def expression(draw, depth=0):
    env = {"a": draw(st.integers(0, MASK)), "b": draw(st.integers(0, MASK))}
    return _expr(draw, env, depth), env


def _expr(draw, env, depth):
    if depth >= 4 or draw(st.booleans()) and depth > 1:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            literal = draw(st.integers(0, 0xFFFF))
            return Node(str(literal), literal)
        name = draw(st.sampled_from(["a", "b"]))
        return Node(name, env[name])

    kind = draw(st.integers(0, 10))
    if kind == 0:  # unary
        op = draw(st.sampled_from(["-", "~", "!"]))
        operand = _expr(draw, env, depth + 1)
        value = {
            "-": (-operand.value) & MASK,
            "~": (~operand.value) & MASK,
            "!": int(operand.value == 0),
        }[op]
        return Node(f"{op}({operand.text})", value)
    if kind == 1:  # ternary
        cond = _expr(draw, env, depth + 1)
        then = _expr(draw, env, depth + 1)
        orelse = _expr(draw, env, depth + 1)
        value = then.value if cond.value else orelse.value
        return Node(f"(({cond.text}) ? ({then.text}) : ({orelse.text}))", value)
    if kind == 2:  # division guarded against zero
        left = _expr(draw, env, depth + 1)
        right = _expr(draw, env, depth + 1)
        op = draw(st.sampled_from(["/", "%"]))
        divisor_text = f"(({right.text}) | 1)"
        divisor_value = right.value | 1
        fn = _sdiv if op == "/" else _srem
        return Node(
            f"(({left.text}) {op} {divisor_text})",
            fn(left.value, divisor_value),
        )
    if kind == 3:  # shifts with bounded amount
        left = _expr(draw, env, depth + 1)
        amount = draw(st.integers(0, 31))
        op = draw(st.sampled_from(["<<", ">>"]))
        if op == "<<":
            value = (left.value << amount) & MASK
        else:
            value = (_signed(left.value) >> amount) & MASK
        return Node(f"(({left.text}) {op} {amount})", value)
    if kind == 4:  # logical short-circuit
        left = _expr(draw, env, depth + 1)
        right = _expr(draw, env, depth + 1)
        op = draw(st.sampled_from(["&&", "||"]))
        if op == "&&":
            value = int(bool(left.value) and bool(right.value))
        else:
            value = int(bool(left.value) or bool(right.value))
        return Node(f"(({left.text}) {op} ({right.text}))", value)
    # plain binary
    op = draw(
        st.sampled_from(
            ["+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">", ">="]
        )
    )
    left = _expr(draw, env, depth + 1)
    right = _expr(draw, env, depth + 1)
    return Node(
        f"(({left.text}) {op} ({right.text}))",
        _BINOPS[op](left.value, right.value),
    )


def _run(program, env, fuse_ops):
    executor = Executor(program, fuse_ops=fuse_ops)
    state = executor.make_initial_state(0)
    finals = executor.run_event(state, "main", [env["a"], env["b"]])
    assert len(finals) == 1, finals
    result = finals[0].memory[program.global_address("r")]
    return executor, result


@settings(max_examples=250, deadline=None)
@given(expression(), st.none() | st.integers(0, 5))
def test_compiled_expression_matches_reference(case, loop_count):
    node, env = case
    if loop_count is None:
        body = f"r = {node.text};"
        expected = node.value
    else:
        # The loop test fuses to CMP_JZ, the first `||` arm to CMP_JNZ
        # (it always holds inside the loop), `i += 1` to INC_MEM.
        body = f"""
        var i = 0;
        while (i < {loop_count}) {{
            if (i < {loop_count} || a == b) {{ r += {node.text}; }}
            i += 1;
        }}"""
        expected = (loop_count * node.value) & MASK
    source = f"""
    var r;
    func main(a, b) {{
        {body}
    }}
    """
    program = compile_source(source)
    fused, result = _run(program, env, fuse_ops=True)
    assert result == expected, (
        f"compiled {node.text} with a={env['a']} b={env['b']}: "
        f"vm={result} reference={expected}"
    )
    unfused, unfused_result = _run(program, env, fuse_ops=False)
    assert unfused_result == result
    assert unfused.instructions_executed == fused.instructions_executed
    assert unfused.visited_pcs == fused.visited_pcs
    if loop_count is not None:
        superops = {op for op, _, _ in fused.decoded.code}
        assert fused.decoded.fused > 0
        assert {Op.CMP_JZ, Op.CMP_JNZ, Op.INC_MEM} <= superops
