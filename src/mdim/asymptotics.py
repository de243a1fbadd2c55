"""Limiting constants for the metric dimension of random trees/forests and sparse G(n,p).

The tree-model constants come from the singularity x = rho(y) of the mobile
series, where rho satisfies

    1 + rho = (1 + (e^{y rho} - 1)/y) * rho * e^{1 - rho},

giving rho(1) = 1/(e-1).  Subdividing edges moves the singularity to
R(y) = rho(y)/(1+rho(y)), with R(1) = 1/e, and the quasi-powers formulas read
off the mean and variance slopes mu = -R'(1)/R(1) and
sigma^2 = -R''(1)/R(1) - R'(1)/R(1) + (R'(1)/R(1))^2.

For G(n, c/n) with c < 1 the linear-term constant of the expected metric
dimension is C(c).  It sums contributions of isolated vertices, leaves,
branch vertices with a pendant path, and path components; `C_closed`
evaluates those sums exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _relation(r: float, y: float) -> float:
    return (1.0 + (math.exp(y * r) - 1.0) / y) * r * math.exp(1.0 - r) - 1.0 - r


def _partials(r: float, y: float) -> tuple[float, float, float, float, float]:
    """First and second partials of the relation at (r, y)."""
    E = math.exp(y * r)
    A = 1.0 + (E - 1.0) / y
    A_r = E
    A_y = r * E / y - (E - 1.0) / y**2
    A_rr = y * E
    A_ry = r * E
    A_yy = r * r * E / y - 2.0 * r * E / y**2 + 2.0 * (E - 1.0) / y**3
    ex = math.exp(1.0 - r)
    B = r * ex
    B_r = (1.0 - r) * ex
    B_rr = (r - 2.0) * ex
    phi_r = A_r * B + A * B_r - 1.0
    phi_y = A_y * B
    phi_rr = A_rr * B + 2.0 * A_r * B_r + A * B_rr
    phi_ry = A_ry * B + A_y * B_r
    phi_yy = A_yy * B
    return phi_r, phi_y, phi_rr, phi_ry, phi_yy


@dataclass(frozen=True)
class AsymptoticConstants:
    rho1: float
    rho_d1: float
    rho_d2: float
    R1: float
    R_d1: float
    R_d2: float
    mu: float
    sigma2: float


def tree_constants() -> AsymptoticConstants:
    """All uniform-model constants: rho and R values, mu, sigma^2."""
    # rho(1): Newton's method on phi(r, 1) = 0 from 0.58, near the root 1/(e-1)
    rho1 = 0.58
    for _ in range(8):
        phi = _relation(rho1, 1.0)
        if abs(phi) < 1e-14:
            break
        rho1 -= phi / _partials(rho1, 1.0)[0]
    else:
        raise AssertionError("Newton's method for rho(1) did not converge")
    # rho'(1), rho''(1): differentiate phi(rho(y), y) = 0 once and twice in y at y = 1
    phi_r, phi_y, phi_rr, phi_ry, phi_yy = _partials(rho1, 1.0)
    d1 = -phi_y / phi_r
    d2 = -(phi_yy + 2.0 * phi_ry * d1 + phi_rr * d1 * d1) / phi_r
    w = 1.0 + rho1
    R1 = rho1 / w
    R_d1 = d1 / w**2
    R_d2 = d2 / w**2 - 2.0 * d1 * d1 / w**3
    ratio = R_d1 / R1
    mu = -ratio
    sigma2 = -R_d2 / R1 - ratio + ratio * ratio
    return AsymptoticConstants(rho1, d1, d2, R1, R_d1, R_d2, mu, sigma2)


# ---------------------------------------------------------------------------
# G(n, c/n) expectation constant.
# ---------------------------------------------------------------------------


def _c_closed(c, m):
    """Closed form of the expectation constant, generic over the math backend.

    With q = (1-(c+1)e^{-c})/(1-ce^{-c}) the degree-k branch-vertex sum is the
    exponential tail e^c - e^{cq} minus its first three terms, and the path
    sum is geometric: the bracket collapses to

        1 + c + c^2/2 - e^c + e^{cq} - (c^2/2) q^2 + (c/2) e^{-c}/(1-ce^{-c}).
    """
    emc = m.exp(-c)
    w = 1 - c * emc
    q = (1 - (c + 1) * emc) / w
    bracket = 1 + c + c * c / 2 - m.exp(c) + m.exp(c * q) - (c * c / 2) * q * q + (c / 2) * emc / w
    return emc * bracket


def C_closed(c: float) -> float:
    """Expectation constant C(c) for sparse G(n, c/n), 0 <= c < 1."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c={c} outside [0, 1)")
    return _c_closed(c, math)


_MAX_GRID = 10_000  # points in a `c_curve` table; the default grid has 100


def c_curve(c_min: float, c_max: float, step: float) -> list[tuple[float, float]]:
    """Table of (c, C_closed(c)) on the grid c_min, c_min+step, ..., <= c_max."""
    if not (0.0 <= c_min < c_max < 1.0):
        raise ValueError("need 0 <= c_min < c_max < 1")
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if (c_max - c_min) / step >= _MAX_GRID:
        raise ValueError(f"grid has more than {_MAX_GRID} points")
    out = []
    i = 0
    while True:
        c = c_min + i * step
        if c > c_max + 1e-12:
            break
        c = min(c, c_max)
        out.append((c, C_closed(c)))
        i += 1
    return out
