"""Parametric execution-phase model and its constrained fit (Section 4.2).

The model estimates the execution time of one tile with band widths
``(w_1, ..., w_L)`` as::

    sum_{j=1..L} O_j * prod_{k<=j} w_k  +  W * prod_{j=1..L} w_j  +  O_0

``O_j`` is the per-iteration overhead of loop level ``j`` and ``W`` the
worst-case time of the innermost code.  ``O_0`` is a constant intercept
(tile warm-up); the paper's formula omits it, but the measured samples
contain per-segment setup costs, and a non-negative intercept keeps the
model an upper bound without inflating the linear terms.

Note the level-``L`` term and the ``W`` term share the same regressor
``prod_k w_k``; they are merged into ``W`` and ``O_L`` reported as 0.

The fit minimises the total overestimation subject to the paper's
constraint that no measured sample exceeds its estimate (the model must be
a WCET upper bound).  That is a linear program, solved with scipy; if the
LP solver is unavailable the fit falls back to non-negative least squares
followed by a scale-up to restore the upper-bound property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ExecModel:
    """Fitted execution-phase model for one tilable component."""

    overheads: Tuple[float, ...]   # O_1 .. O_L (O_L merged into W, so 0)
    work: float                    # W
    intercept: float               # O_0

    def __post_init__(self):
        for value in (*self.overheads, self.work, self.intercept):
            if not math.isfinite(value):
                raise ValueError(
                    f"execution-model coefficients must be finite, "
                    f"got {value}")

    @property
    def depth(self) -> int:
        return len(self.overheads)

    def estimate(self, widths: Sequence[int]) -> float:
        """Estimated cycles for a tile with the given band widths."""
        if len(widths) != self.depth:
            raise ValueError(
                f"expected {self.depth} widths, got {len(widths)}")
        total = self.intercept
        prefix = 1.0
        for overhead, width in zip(self.overheads, widths):
            prefix *= width
            total += overhead * prefix
        total += self.work * prefix
        return total

    def estimate_batch(self, widths: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized :meth:`estimate` over arrays of band widths.

        *widths* holds one array per level (broadcast-compatible shapes);
        the returned cycle estimates are bit-identical to calling
        :meth:`estimate` elementwise — the accumulation replicates the
        scalar operation order, and IEEE-754 elementwise numpy arithmetic
        matches Python float arithmetic operation for operation.  This is
        the array-friendly export the batch makespan evaluator rides on.
        """
        if len(widths) != self.depth:
            raise ValueError(
                f"expected {self.depth} width arrays, got {len(widths)}")
        shape = np.broadcast_shapes(*(np.shape(w) for w in widths))
        total = np.full(shape, self.intercept, dtype=np.float64)
        prefix = np.ones(shape, dtype=np.float64)
        for overhead, width in zip(self.overheads, widths):
            prefix = prefix * width
            if overhead:
                total = total + overhead * prefix
        total = total + self.work * prefix
        return total

    def scaled(self, overheads: float = 1.0, work: float = 1.0
               ) -> "ExecModel":
        """A copy with multiplicative noise on the fitted coefficients.

        *overheads* scales every per-level overhead and the intercept
        (the tile-grain costs), *work* the innermost-iteration cost.
        Scales must be positive so estimates stay nonnegative; the
        robust optimizer's timing scenarios perturb models through this
        helper.
        """
        if overheads <= 0 or work <= 0:
            raise ValueError("coefficient scales must be positive")
        if overheads == 1.0 and work == 1.0:
            return self
        return ExecModel(
            overheads=tuple(o * overheads for o in self.overheads),
            work=self.work * work,
            intercept=self.intercept * overheads,
        )

    def __repr__(self) -> str:
        o = ", ".join(f"{v:.2f}" for v in self.overheads)
        return f"ExecModel(O=[{o}], W={self.work:.3f}, O0={self.intercept:.1f})"


def design_matrix(samples: Sequence[Sequence[int]]) -> np.ndarray:
    """Regressor matrix: prefix products for levels 1..L-1, full product,
    and the intercept column."""
    rows = []
    for widths in samples:
        prefix = 1.0
        row = []
        for width in widths[:-1]:
            prefix *= width
            row.append(prefix)
        prefix *= widths[-1]
        row.append(prefix)       # merged O_L / W column
        row.append(1.0)          # intercept
        rows.append(row)
    return np.asarray(rows, dtype=float)


def fit_exec_model(samples: Sequence[Sequence[int]],
                   measured: Sequence[float]) -> ExecModel:
    """Fit O_j, W, O_0 with the measured-not-above-estimate constraint."""
    if len(samples) != len(measured):
        raise ValueError("samples and measurements must align")
    if not samples:
        raise ValueError("cannot fit an execution model without samples")
    depth = len(samples[0])
    matrix = design_matrix(samples)
    target = np.asarray(measured, dtype=float)

    coeffs = _fit_lp(matrix, target)
    if coeffs is None:
        coeffs = _fit_nnls_scaled(matrix, target)

    overheads = list(coeffs[:depth - 1]) + [0.0]
    return ExecModel(
        overheads=tuple(float(v) for v in overheads),
        work=float(coeffs[depth - 1]),
        intercept=float(coeffs[depth]),
    )


def _fit_lp(matrix: np.ndarray, target: np.ndarray):
    """Minimise sum(Ax - y) subject to Ax >= y, x >= 0 (exact LP)."""
    try:
        from scipy.optimize import linprog
    except ImportError:                      # pragma: no cover
        return None
    n = matrix.shape[1]
    # minimize c.x where c = column sums (sum of Ax over samples)
    cost = matrix.sum(axis=0)
    result = linprog(
        c=cost,
        A_ub=-matrix,
        b_ub=-target,
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not result.success:
        return None
    return result.x


def _fit_nnls_scaled(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """NNLS fallback, scaled up so every sample is overestimated."""
    try:
        from scipy.optimize import nnls
        coeffs, _ = nnls(matrix, target)
    except ImportError:                      # pragma: no cover
        coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        coeffs = np.clip(coeffs, 0.0, None)
    estimates = matrix @ coeffs
    positive = estimates > 0
    if positive.any():
        scale = float(np.max(target[positive] / estimates[positive]))
        if scale > 1.0:
            coeffs = coeffs * scale
    return coeffs
