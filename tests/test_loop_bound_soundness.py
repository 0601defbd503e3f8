"""Generated counted loops never run past their certified bound.

Each example is one ``for`` loop with ``acc += 1`` in its body: a start,
a limit (a constant, a parameter with a declared ``params`` range, a
``min`` of both or a local), a comparison (``!=`` included), an update
(a constant step, a parameter step with a declared range, ``++``/``--``
or a geometric factor) and maybe a write in the body.  A loop the
analysis bounds runs on the cpu interpreter and on the vector tier with
parameter values drawn from their declared ranges; the trips it runs
(``acc``) must not exceed ``max_loop_iterations`` nor the WCET trip
product.  A loop the analysis refuses must fail strict compilation with
BA-005.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.wcet import kernel_wcet
from repro.core.compiler import CompilerOptions, compile_source
from repro.errors import CertificationError
from repro.runtime import BrookRuntime

TEMPLATE = """
kernel void counted(float x<>, float n, float s, out float o<>) {{
    float acc = 0.0;
    float lim = n + 2.0;
    float other = 0.0;
    for ({index} i = {start}; {cond}; {update}) {{
        acc += 1.0;
        {write}
    }}
    o = acc;
}}
"""

UPDATES = {
    "add": "i = i + {step}", "add-left": "i = {step} + i",
    "compound-add": "i += {step}", "compound-sub": "i -= {step}",
    "sub": "i = i - {step}", "increment": "i++", "decrement": "i--",
    "geometric": "i = i * {step}", "compound-geometric": "i *= {step}",
}
#: Body writes, the harmless ones first (hypothesis favours them).
WRITES = {
    "none": "",
    "other": "other = other + 1.0;",
    "index": "if (acc > 1000.0) { i = i - 1; }",
    "limit": "if (x > 1000.0) { lim = 0.0; }",
}


def _value(draw, lo, hi):
    """A parameter value inside its declared range, halves included."""
    return draw(st.integers(int(2 * lo), int(2 * hi))) / 2.0


@st.composite
def loops(draw):
    n_lo = draw(st.integers(-8, 8))
    n_hi = n_lo + draw(st.integers(0, 16))
    s_lo = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))
    s_hi = s_lo + draw(st.integers(0, 3))
    update = draw(st.sampled_from(list(UPDATES)))
    geometric = "geometric" in update
    step = draw(st.sampled_from(
        ["2", "3", "s", "1"] if geometric else ["1", "2", "s", "3", "4", "0"]))
    limit = draw(st.sampled_from(
        ["{c}", "n", "min(n, {c})", "lim"])).format(
            c=draw(st.integers(-16, 24)))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "!="]))
    cond = f"i {op} {limit}" if draw(st.booleans()) else \
        f"{limit} {_MIRROR[op]} i"
    index = draw(st.sampled_from(["int", "float"]))
    start = draw(st.integers(-8, 8))
    source = TEMPLATE.format(
        index=index, start=f"{start}.0" if index == "float" else start,
        cond=cond, update=UPDATES[update].format(step=step),
        write=WRITES[draw(st.sampled_from(list(WRITES)))])
    spec = {"counted": {"params": {"n": (n_lo, n_hi), "s": (s_lo, s_hi)}}}
    return source, spec, _value(draw, n_lo, n_hi), _value(draw, s_lo, s_hi)


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}


@pytest.fixture(scope="module")
def runtimes():
    tiers = [BrookRuntime(backend="cpu", compiler_options=CompilerOptions(
        enable_fast_path=fast)) for fast in (False, True)]
    yield tiers
    for rt in tiers:
        rt.close()


def _trips(rt, source, spec, n, s):
    module = rt.compile(source, strict=False, range_specs=spec)
    x = rt.stream_from(np.linspace(0.0, 1.0, 4, dtype=np.float32))
    o = rt.stream((4,))
    module.counted(x, n, s, o)
    trips = o.read()
    assert np.all(trips == trips[0])
    return int(trips[0]), module.program


@settings(max_examples=150, derandomize=True, deadline=None)
@given(loop=loops())
def test_loops_never_exceed_their_bound(runtimes, loop):
    source, spec, n, s = loop
    program = compile_source(source, strict=False, range_specs=spec)
    bound = program.kernel("counted").max_loop_iterations
    if bound is None:
        with pytest.raises(CertificationError) as error:
            compile_source(source, range_specs=spec)
        assert any(v.rule_id == "BA-005" for v in error.value.violations)
        return
    wcet_trips = kernel_wcet(program, "counted").max_loop_iterations
    for rt in runtimes:
        trips, compiled = _trips(rt, source, spec, n, s)
        assert trips <= bound and trips <= wcet_trips, source
    # The second runtime ran the kernel on the vector tier.
    assert compiled.kernel("counted").vector_path is not None
