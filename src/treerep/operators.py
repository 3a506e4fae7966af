"""Matrix functional calculus for the boundary-weight operator.

Everything revolves around one scalar function.  On the disc |z| < 2 sqrt(q)
define

    phi(z) = (z + sqrt(z^2 - 4q)) / 2

with the square root cut along the nonnegative reals (argument taken in
(0, 2pi)).  The cut never meets z^2 - 4q on the disc, phi is holomorphic
there, and phi(z) together with q/phi(z) are the two roots of
t^2 - z t + q = 0.  The principal branch would be wrong on real spectra,
where both roots are complex of modulus sqrt(q).

That cut square root is i times the principal square root of 4q - z^2, and
for |z| < 2 sqrt(q) the number 4q - z^2 lies in the open right half-plane.
So for a matrix alpha of spectral norm < 2 sqrt(q) one principal matrix
square root gives both

    tau = (alpha + i sqrtm(4q - alpha^2)) / 2,
    tau^{-1} = (alpha - i sqrtm(4q - alpha^2)) / (2q),

with tau + q tau^{-1} = alpha.  tau^{-1} is never obtained by inverting
tau, so the inversion residual is a real check and not a tautology.  The
defining residuals are measured in the spectral norm, and a pair whose
residuals exceed tolerance is rejected loudly (IllConditionedError)
instead of returned quietly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BranchCutError,
    IllConditionedError,
    OperatorDomainError,
    SpectralGuardError,
)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise OperatorDomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise OperatorDomainError("matrix has non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _sqrt_cut(w: complex) -> complex:
    """sqrt with branch cut on the nonnegative real axis, argument in (0, 2pi)."""
    if w.imag == 0.0 and w.real >= 0.0:
        raise BranchCutError(f"argument {w} lies on the branch cut")
    theta = math.atan2(w.imag, w.real)
    if theta <= 0.0:
        theta += 2.0 * math.pi
    return math.sqrt(abs(w)) * cmath.exp(0.5j * theta)


def phi_scalar(z: complex, q: int) -> complex:
    return (z + _sqrt_cut(z * z - 4 * q)) / 2.0


@dataclass(eq=False)
class OperatorPair:
    """alpha together with tau = phi(alpha), its sibling inverse, and the
    measured residuals of the defining identities."""

    q: int
    alpha: np.ndarray
    tau: np.ndarray
    tau_inv: np.ndarray
    residuals: dict
    tol: float
    _powers: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]


def build_pair(alpha: np.ndarray, q: int, tol: float = 1e-9) -> OperatorPair:
    """Construct tau = phi(alpha) and its sibling root tau^{-1} from one
    matrix square root, verify the defining residuals, and package the lot.

    Raises OperatorDomainError when alpha is outside the open disc of
    radius 2 sqrt(q) and IllConditionedError when the square root is not
    finite or the computed pair fails its own residual bounds.
    """
    alpha = np.ascontiguousarray(alpha, dtype=np.complex128)
    if q < 2:
        raise OperatorDomainError(f"branching parameter must be >= 2, got {q}")
    norm_alpha = spectral_norm(alpha)
    if norm_alpha >= 2.0 * math.sqrt(q):
        raise OperatorDomainError(
            f"spectral norm {norm_alpha:.6g} is not inside the disc of radius "
            f"{2.0 * math.sqrt(q):.6g}"
        )
    eye = np.eye(alpha.shape[0], dtype=np.complex128)
    root = 1j * scipy.linalg.sqrtm(4 * q * eye - alpha @ alpha)
    if not np.all(np.isfinite(root)):
        raise IllConditionedError("matrix square root has non-finite entries")
    tau = (alpha + root) / 2.0
    tau_inv = (alpha - root) / (2.0 * q)
    # the three residuals, tau and tau^{-1}: five spectral norms, one SVD call
    stack = np.stack(
        [tau @ tau - alpha @ tau + q * eye, tau + q * tau_inv - alpha, tau @ tau_inv - eye,
         tau, tau_inv]
    )
    if not np.isfinite(stack).all():
        raise OperatorDomainError("matrix has non-finite entries")
    quad, total, inv, norm_tau, norm_tau_inv = np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()
    residuals = {"quad": quad, "sum": total, "inv": inv}
    bounds = {
        "quad": tol * (1.0 + norm_alpha**2),
        "sum": tol * (1.0 + norm_alpha),
        "inv": tol * (1.0 + norm_tau * norm_tau_inv),
    }
    bad = {k: v for k, v in residuals.items() if v > bounds[k]}
    if bad:
        raise IllConditionedError(
            f"functional calculus residuals exceed tolerance: {bad}", residuals=residuals
        )
    return OperatorPair(q=q, alpha=alpha, tau=tau, tau_inv=tau_inv, residuals=residuals, tol=tol)


def power(pair: OperatorPair, k: int) -> np.ndarray:
    """tau^k, negative exponents through the sibling inverse; cached."""
    cache = pair._powers
    if not cache:
        cache.update({0: np.eye(pair.dim, dtype=np.complex128), 1: pair.tau, -1: pair.tau_inv})
    if k not in cache:
        step = 1 if k > 0 else -1
        cache[k] = power(pair, k - step) @ cache[step]
    return cache[k]


def guard_spectrum(pair: OperatorPair) -> dict:
    """Report the margins of the two spectral safety conditions:

    (a) the distance from the spectrum of tau to +q and -q, and
    (b) the extreme singular values of tau - tau^{-1}, whose smallest must
        be positive,

    raising SpectralGuardError unless both margins are positive.  For an
    alpha that build_pair accepts both hold in exact arithmetic (+-q and
    +-1 are phi(+-(q+1)), outside the disc), so the guard catches rounding
    and forged pairs.
    """
    lam = np.linalg.eigvals(pair.tau)
    margin = float(np.min(np.minimum(np.abs(lam - pair.q), np.abs(lam + pair.q))))
    sing = scipy.linalg.svdvals(pair.tau - pair.tau_inv)
    smin, smax = float(sing[-1]), float(sing[0])
    if not (margin > 0.0 and smin > 0.0):
        raise SpectralGuardError(
            f"spectral guard violated: margin_to_pm_q={margin}, sigma_min_diff={smin}"
        )
    return {
        "margin_to_pm_q": margin,
        "sigma_min_diff": smin,
        "sigma_max_diff": smax,
        "cond_diff": smax / smin,
        "tau_spectrum": [[float(z.real), float(z.imag)] for z in lam],
    }


_DISC_FRACTION = 0.75  # of the disc radius 2 sqrt(q), for random_in_disc


def random_in_disc(d: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Random d x d complex matrix rescaled to three quarters of the disc radius."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    nrm = spectral_norm(a)
    if nrm == 0.0:
        return np.zeros((d, d), dtype=np.complex128)
    return a * (_DISC_FRACTION * 2.0 * math.sqrt(q) / nrm)


def matrix_to_json_obj(a: np.ndarray) -> dict:
    return {
        "d": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in np.asarray(a).ravel()],
    }
