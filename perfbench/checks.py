"""Output checks applied to every benchmark operation.

Each check returns None when the output is right and a one-line reason when
it is not; a reason counts the operation as failed.  The tolerances are the
acceptance gate's: 1e-10 for the equivalence principle, 1e-12 relative for
an exact second computation, 4 standard errors for a simulated estimate,
and 5 times the largest standard error for the largest occupancy-frequency
gap.
"""

from __future__ import annotations

import hashlib

import numpy as np

EQUIVALENCE_TOL = 1e-10
EXACT_RTOL = 1e-12
Z_LIMIT = 4.0
FREQUENCY_LIMIT = 5.0


def equivalence(residual: float, numerator: float) -> "str | None":
    """Benefits minus premiums must value to zero."""
    if abs(residual) <= EQUIVALENCE_TOL * max(1.0, abs(numerator)):
        return None
    return f"equivalence residual {residual!r} exceeds {EQUIVALENCE_TOL:g} x max(1, {numerator!r})"


def backward_epv(matrices: np.ndarray, cash: np.ndarray, discount: np.ndarray, initial: np.ndarray) -> float:
    """Expected present value by backward recursion over the periods.

    W_n = m_n C_n and W_k = m_k C_k + Q(k) W_{k+1}; the value is
    initial . W_0.  It sums in the opposite order from the library's
    forward pass through the occupancy distribution.
    """
    n = matrices.shape[0]
    w = discount[n] * cash[n]
    for k in range(n - 1, -1, -1):
        w = discount[k] * cash[k] + matrices[k] @ w
    return float(initial @ w)


def relative(got: float, want: float, what: str) -> "str | None":
    """``got`` must equal ``want`` to EXACT_RTOL relative."""
    if abs(got - want) <= EXACT_RTOL * abs(want):
        return None
    return f"{what}: {got!r} differs from {want!r} by more than {EXACT_RTOL:g} relative"


def z_score(mean: float, std_error: float, exact: float, what: str) -> "str | None":
    """A simulated estimate must lie within Z_LIMIT standard errors of the matrix value."""
    if std_error > 0 and abs(mean - exact) < Z_LIMIT * std_error:
        return None
    return f"{what}: estimate {mean!r} (SE {std_error!r}) is not within {Z_LIMIT:g} SE of {exact!r}"


def frequencies(gap: float, scale: float) -> "str | None":
    """The largest occupancy-frequency gap must be below FREQUENCY_LIMIT x the largest SE.

    Both are maxima over all cells, as ``frequency_vs_distribution`` returns
    them, so this is not a test of each cell against its own SE.
    """
    if gap < FREQUENCY_LIMIT * scale:
        return None
    return f"occupancy frequency gap {gap!r} is not within {FREQUENCY_LIMIT:g} x {scale!r}"


def path_digest(paths: np.ndarray) -> str:
    """sha256 of the simulated states, independent of the array's integer dtype."""
    return hashlib.sha256(np.ascontiguousarray(paths, dtype="<i4").tobytes()).hexdigest()


def same_digest(got: str, want: str, what: str) -> "str | None":
    if got == want:
        return None
    return f"{what}: path digest {got[:16]}... differs from {want[:16]}..."


def cli_report(returncode: int, stdout: str, golden: str, argv) -> "str | None":
    """A command must exit 0 and print exactly its golden report."""
    if returncode != 0:
        return f"{' '.join(argv)}: exit code {returncode}"
    if stdout != golden:
        return f"{' '.join(argv)}: report differs from the golden report"
    return None
