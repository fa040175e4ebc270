"""Typed error hierarchy for the whole toolchain.

Every failure the compiler, optimizers, planners, and the PREM VM can
produce derives from :class:`ReproError`, so callers can distinguish a
bug in the reproduction from an *expected* failure mode (infeasible
platform, optimizer timeout, a schedule that violates PREM semantics)
and degrade gracefully instead of crashing deep inside numpy.

Several classes multiply-inherit from the builtin exception previously
raised at the same site (``ValueError``, ``IndexError``, ...), so
pre-existing ``except``/``pytest.raises`` clauses keep working.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class of every expected toolchain failure."""


# ---------------------------------------------------------------------------
# configuration / input errors


class KernelConfigError(ReproError, KeyError):
    """Unknown kernel name or preset."""

    def __str__(self) -> str:     # KeyError quotes its repr; keep prose
        return self.args[0] if self.args else ""


class TileConfigError(ReproError, ValueError):
    """Malformed tile-width vector handed to a cost model, or a component
    with a zero-trip level, which has no tile widths at all."""


# ---------------------------------------------------------------------------
# optimization / planning errors


class OptimizerError(ReproError):
    """An optimization stage could not produce a usable schedule."""


class OptimizerTimeout(OptimizerError):
    """An optimization stage exceeded its wall-clock budget."""

    def __init__(self, stage: str, budget_s: float):
        super().__init__(
            f"stage {stage!r} exceeded its {budget_s:.3g} s budget")
        self.stage = stage
        self.budget_s = budget_s


class InfeasibleScheduleError(OptimizerError):
    """No candidate solution fits the platform (SPM, legality, caps)."""


class CompilationError(ReproError):
    """Every stage of the compiler's fallback chain failed."""


# ---------------------------------------------------------------------------
# PREM VM errors


class PremVmError(ReproError):
    """Base class of functional-VM execution failures."""


class SpmAccessError(PremVmError, IndexError):
    """An execution phase touched SPM outside a segment's canonical range.

    Carries the full coordinates of the violation — array name, global
    index, the buffer's bound range, and the core/segment executing —
    so a fault campaign can report *where* PREM semantics broke.
    """

    def __init__(self, name: str, index: Tuple[int, ...],
                 lo: Tuple[int, ...], shape: Tuple[int, ...],
                 core: Optional[int] = None,
                 segment: Optional[int] = None, detail: str = ""):
        where = ""
        if core is not None or segment is not None:
            where = f" (core {core}, segment {segment})"
        hi = tuple(l + s - 1 for l, s in zip(lo, shape))
        super().__init__(
            f"{name}[{index}]{where}: {detail or 'outside'} the segment's "
            f"canonical range [{lo}..{hi}]")
        self.name = name
        self.index = index
        self.lo = lo
        self.shape = shape
        self.core = core
        self.segment = segment


class BufferUnboundError(PremVmError, RuntimeError):
    """An execution phase used a buffer no swap ever bound."""

    def __init__(self, name: str, buffer: int,
                 core: Optional[int] = None,
                 segment: Optional[int] = None):
        super().__init__(
            f"core {core} segment {segment}: buffer {name}_buf{buffer} "
            f"used before any swap")
        self.name = name
        self.buffer = buffer
        self.core = core
        self.segment = segment


class MissingComputeError(PremVmError, ValueError):
    """A statement reached by the VM has no compute function."""

    def __init__(self, stmt_name: str):
        super().__init__(f"statement {stmt_name} has no compute function")
        self.stmt_name = stmt_name


# ---------------------------------------------------------------------------
# source-level loop-IR analysis errors


class SourceAnalysisError(ReproError):
    """A loop-IR construct the source analyzer cannot reason about.

    Each subclass carries the stable ``PREM5xx`` diagnostic code the
    ``analyze --source`` command reports instead of a traceback.
    """

    code = "PREM502"


class GuardScopeError(SourceAnalysisError, ValueError):
    """A guard references a variable outside its ancestor iterators."""

    code = "PREM501"

    def __init__(self, loop_var: str, guard_var: str):
        super().__init__(
            f"guard on {loop_var} references non-ancestor {guard_var!r}")
        self.loop_var = loop_var
        self.guard_var = guard_var


class ChainConsistencyError(SourceAnalysisError, AssertionError):
    """A dependence names a loop outside the statements' shared nest."""

    code = "PREM502"

    def __init__(self, head: str, detail: str = ""):
        super().__init__(
            f"dependence chain head {head!r} is not a shared loop"
            + (f": {detail}" if detail else ""))
        self.head = head


class LatticeRangeError(SourceAnalysisError, ValueError):
    """A loop range with a non-positive stride reached interval math."""

    code = "PREM503"

    def __init__(self, detail: str):
        super().__init__(detail)


# ---------------------------------------------------------------------------
# structured PREM-invariant diagnostics


class InvariantViolationError(ReproError):
    """Raised when a caller asks a checker to fail on diagnostics.

    Carries the offending :class:`repro.analysis.Diagnostic` objects
    (duck-typed on ``describe()`` so this base module needs no analysis
    import).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join(v.describe() for v in self.violations)
        super().__init__(
            f"{len(self.violations)} PREM invariant violation(s):\n{lines}")
