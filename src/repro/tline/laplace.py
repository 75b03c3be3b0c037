"""Numerical inverse Laplace transform (de Hoog, Knight & Stokes 1982).

:func:`dehoog` inverts a user-supplied transform ``F(s)`` that must
accept a complex numpy array and return a complex numpy array of the
same shape: a Fourier series accelerated by a quotient-difference (Pade)
continued fraction.  It handles oscillatory or nearly discontinuous time
functions such as the wavefront of an underdamped transmission line, and
shares one set of ``2M + 1`` transform samples across every requested
time.  :func:`step_response` inverts ``H(s)/s`` through it.

The paper's evaluation (Table 1, Fig. 2) relies on "dynamic circuit
simulation" of a distributed RLC line.  The exact line has a closed-form
*frequency-domain* description (paper eq. 1); inverting it numerically is
one of the three independent routes this library uses to reproduce those
simulations (the others being lumped MNA transient simulation and exact
state-space integration, see :mod:`repro.spice`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "TransformFunction",
    "dehoog",
    "step_response",
]

TransformFunction = Callable[[np.ndarray], np.ndarray]


def _as_time_array(times: float | Sequence[float] | np.ndarray) -> np.ndarray:
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1:
        raise ParameterError(f"times must be scalar or 1-D, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ParameterError("times must be finite")
    if np.any(t <= 0):
        raise ParameterError(
            "inverse Laplace evaluation requires strictly positive times; "
            "use step_response() if you need a value at t = 0"
        )
    return t


def _dehoog_cf_coefficients(a: np.ndarray, M: int) -> np.ndarray:
    """Quotient-difference algorithm: continued-fraction coefficients.

    Given Fourier samples ``a[0..2M]`` (with ``a[0]`` already halved),
    returns ``d[0..2M]`` such that the Pade approximant of the power
    series ``sum a_k z**k`` is the continued fraction
    ``d0 / (1 + d1 z / (1 + d2 z / ...))``.
    """
    n = 2 * M + 1
    # q and e columns of the QD table.
    q = np.zeros((n, M + 1), dtype=complex)
    e = np.zeros((n, M + 1), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        q[: n - 1, 1] = a[1:] / a[:-1]
        for r in range(1, M + 1):
            # e column r from q column r.
            top = n - 2 * r
            e[:top, r] = q[1 : top + 1, r] - q[:top, r] + e[1 : top + 1, r - 1]
            if r < M:
                qtop = top - 1
                q[:qtop, r + 1] = (
                    q[1 : qtop + 1, r] * e[1 : qtop + 1, r] / e[:qtop, r]
                )
    d = np.zeros(n, dtype=complex)
    d[0] = a[0]
    for r in range(1, M + 1):
        d[2 * r - 1] = -q[0, r]
        d[2 * r] = -e[0, r]
    # Degenerate transforms can produce NaNs (e.g. exactly rational F with
    # fewer poles than M); zero coefficients simply truncate the fraction.
    d[~np.isfinite(d)] = 0.0
    return d


def dehoog(
    F: TransformFunction,
    times,
    M: int = 40,
    alpha: float = 0.0,
    tol: float = 1e-10,
    period_factor: float = 2.0,
) -> np.ndarray:
    """de Hoog--Knight--Stokes inversion.

    Parameters
    ----------
    F:
        Vectorized Laplace transform.
    times:
        Positive evaluation times.  The Fourier samples are shared across
        all requested times, so evaluating a full waveform costs one set of
        ``2M + 1`` transform evaluations.
    M:
        Series order; ``2M + 1`` transform samples are used.
    alpha:
        An upper bound on the real part of the rightmost singularity of
        ``F`` (0 for strictly stable systems).
    tol:
        Target accuracy used to place the Bromwich contour.
    period_factor:
        The half-period of the underlying Fourier series is
        ``period_factor * max(times)``.  Must exceed 1 to avoid aliasing.

    >>> import numpy as np
    >>> decay = dehoog(lambda s: 1 / (s + 1), [0.5, 1.0])
    >>> bool(np.allclose(decay, np.exp([-0.5, -1.0]), atol=1e-8))
    True
    """
    if M < 2:
        raise ParameterError(f"dehoog requires M >= 2, got {M}")
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must lie in (0, 1), got {tol}")
    if not (math.isfinite(period_factor) and period_factor > 1.0):
        raise ParameterError(
            "period_factor must be finite and > 1 to avoid aliasing, "
            f"got {period_factor}"
        )
    t = _as_time_array(times)
    big_t = period_factor * float(np.max(t))
    gamma = alpha - math.log(tol) / (2.0 * big_t)

    k = np.arange(2 * M + 1)
    s_nodes = gamma + 1j * np.pi * k / big_t
    a = F(s_nodes).astype(complex)
    a[0] *= 0.5
    d = _dehoog_cf_coefficients(a, M)

    # Continued-fraction evaluation by the standard three-term recurrence
    # A_n = A_{n-1} + d_n z A_{n-2} (same for B), with A_{-1} = 0,
    # B_{-1} = 1, A_0 = d_0, B_0 = 1.  The recurrence is sequential in the
    # level n but independent across times, so each level is one array
    # operation over all times.  Only the levels n-1 and n-2 are kept,
    # which bounds memory by a few arrays of len(times).
    z = np.exp(1j * np.pi * t / big_t)
    a_1, a_2 = np.full_like(z, d[0]), np.zeros_like(z)
    b_1, b_2 = np.ones_like(z), np.ones_like(z)
    for n in range(1, 2 * M):
        dz = d[n] * z
        a_1, a_2 = a_1 + dz * a_2, a_1
        b_1, b_2 = b_1 + dz * b_2, b_1
    dz = d[2 * M] * z
    num, den = a_1 + dz * a_2, b_1 + dz * b_2
    # Remainder acceleration for the last level (de Hoog eq. 23): replace
    # d_{2M} z by R_{2M}(z) in the final recurrence step, at each time
    # where the remainder and the accelerated fraction are well defined.
    h2m = 0.5 * (1.0 + z * (d[2 * M - 1] - d[2 * M]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r2m = -h2m * (1.0 - np.sqrt(1.0 + z * d[2 * M] / (h2m * h2m)))
        num_acc = a_1 + r2m * a_2
        den_acc = b_1 + r2m * b_2
    accept = (
        (h2m != 0) & (den_acc != 0) & np.isfinite(num_acc) & np.isfinite(den_acc)
    )
    num = np.where(accept, num_acc, num)
    den = np.where(accept, den_acc, den)
    if np.any(den == 0):
        raise ParameterError("de Hoog continued fraction degenerated (B = 0)")
    return (np.exp(gamma * t) / big_t) * (num / den).real


#: The inverter :func:`step_response` calls, looked up by name at call
#: time so instrumentation can wrap the entry without patching callers.
_METHODS = {"dehoog": dehoog}


def step_response(
    H: TransformFunction,
    times,
    initial_value: float = 0.0,
    **kwargs,
) -> np.ndarray:
    """Unit-step response of a transfer function ``H(s)``.

    Inverts ``H(s)/s`` with :func:`dehoog` (``kwargs`` are forwarded).
    ``times`` must be finite and non-negative and may include ``t = 0``;
    the response at ``t = 0`` is taken to be ``initial_value`` (0 for
    any strictly proper, delay-dominated network such as a driven
    transmission line).
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ParameterError("step_response requires finite times")
    if np.any(t < 0):
        raise ParameterError("step_response requires non-negative times")
    out = np.empty_like(t)
    positive = t > 0

    def integrand(s: np.ndarray) -> np.ndarray:
        return H(s) / s

    if np.any(positive):
        out[positive] = _METHODS["dehoog"](integrand, t[positive], **kwargs)
    out[~positive] = initial_value
    return out
