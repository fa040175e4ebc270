"""Shared hypothesis strategies for the search-parity property tests."""

from hypothesis import strategies as st

from repro.loopir.builder import for_, kernel_, stmt_
from repro.poly.access import Array


@st.composite
def random_kernels(draw):
    """Tiny synthetic kernels: 1–2 loop levels, elementwise or reduction
    accesses, so parallelizability, SPM pressure and remainder tiles all
    vary across examples.  Draws ``(kernel, loop variables)``."""
    depth = draw(st.integers(1, 2))
    ns = [draw(st.integers(2, 9)) for _ in range(depth)]
    reduction = depth == 2 and draw(st.booleans())
    vars_ = [f"v{i}" for i in range(depth)]
    a = Array("A", tuple(ns))
    if reduction:
        out = Array("B", (ns[0],))
        arrays = {"A": a, "B": out}
        stmt = stmt_("S0", arrays,
                     reads={"A": tuple(vars_), "B": (vars_[0],)},
                     writes={"B": (vars_[0],)})
    else:
        out = Array("B", tuple(ns))
        arrays = {"A": a, "B": out}
        stmt = stmt_("S0", arrays,
                     reads={"A": tuple(vars_)},
                     writes={"B": tuple(vars_)})
    loop = stmt
    for var, n in zip(reversed(vars_), reversed(ns)):
        loop = for_(var, n, loop)
    return kernel_("rand", list(arrays.values()), [loop]), vars_
