"""Matrix functional calculus for the boundary-weight operator.

Everything revolves around one scalar function.  On the disc |z| < 2 sqrt(q)
define

    phi(z) = (z + i sqrt(4q - z^2)) / 2

with the principal square root.  On the disc 4q - z^2 lies in the open
right half-plane, away from that root's cut, so phi is holomorphic there,
and phi(z) together with q/phi(z) are the two roots of t^2 - z t + q = 0.
This is (z + sqrt(z^2 - 4q)) / 2 with the square root cut along the
nonnegative reals; the principal branch of that form would be wrong on
real spectra, where both roots are complex of modulus sqrt(q).
`phi_scalar` is the formula for one number, and raises BranchCutError
where 4q - z^2 is real and <= 0.

For a matrix alpha of spectral norm < 2 sqrt(q) the same formula, with one
principal matrix square root, gives both

    tau = (alpha + i sqrt(4q - alpha^2)) / 2,
    tau^{-1} = (alpha - i sqrt(4q - alpha^2)) / (2q),

with tau + q tau^{-1} = alpha.  tau^{-1} is never obtained by inverting
tau, so the inversion residual is a real check and not a tautology.  The
defining residuals are measured in the spectral norm, and a pair whose
residuals exceed tolerance is rejected loudly (IllConditionedError)
instead of returned quietly.

The root is `principal_sqrt`: the product form of the Denman-Beavers
iteration with determinantal scaling on its first step (N. J. Higham,
Functions of Matrices, SIAM 2008, ch. 6; E. D. Denman and A. N. Beavers,
Appl. Math. Comput. 2(1), 1976).  It converges quadratically for every
matrix with no eigenvalue on the closed negative real axis, defective
(Jordan) ones included, needs only inverses and determinants, and runs on
a stack of matrices at once.  A matrix that does not converge raises
IllConditionedError; no root is returned quietly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from numbers import Number

import numpy as np

from .errors import (
    BranchCutError,
    IllConditionedError,
    OperatorDomainError,
    SpectralGuardError,
    _complex,
    _expect,
    _integer,
)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    a = _complex(a, "a matrix", OperatorDomainError)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise OperatorDomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise OperatorDomainError("matrix has non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def phi_scalar(z: complex, q: int) -> complex:
    """build_pair's tau for the 1 x 1 alpha z; BranchCutError on the cut.

    Raises OperatorDomainError, as build_pair does, when q is not an
    integer >= 2 or z is not a finite number.
    """
    q = _integer(q, "branching parameter", 2, OperatorDomainError)
    if not cmath.isfinite(_expect(z, Number, "z as a number", OperatorDomainError)):
        raise OperatorDomainError(f"z = {z!r} is not finite")
    w = 4 * q - z * z
    if w.imag == 0.0 and w.real <= 0.0:
        raise BranchCutError(f"4q - z^2 = {w} lies on the branch cut")
    return (z + 1j * cmath.sqrt(w)) / 2.0


@dataclass(eq=False)
class OperatorPair:
    """alpha together with tau = phi(alpha), its sibling inverse, the
    measured residuals of the defining identities, and the spectral norms
    of alpha and tau from build_pair's certificate."""

    q: int
    alpha: np.ndarray
    tau: np.ndarray
    tau_inv: np.ndarray
    residuals: dict
    norm_alpha: float
    norm_tau: float
    _powers: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]


_RESIDUAL_TOL = 1e-9  # relative bound on build_pair's three residuals
_ROOT_TOL = 1e-14  # a matrix's root is done once max|M - I| falls below this
_ROOT_MAX_STEPS = 50  # quadratic convergence needs about 5, 12 near the disc's rim


def _inverse(m: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Inverses of a stack; a singular matrix raises IllConditionedError
    naming its index in `active`."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        for k, mk in enumerate(m):
            try:
                np.linalg.inv(mk)
            except np.linalg.LinAlgError:
                raise IllConditionedError(
                    f"square root iteration hit a singular matrix at stack index {active[k]}",
                    index=int(active[k]),
                ) from None
        raise


def principal_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square roots of an (n, d, d) stack of complex matrices.

    Product-form Denman-Beavers iteration (Higham 2008, eq. 6.17), with
    determinantal scaling mu = |det A|^(-1/(2d)) on the first step:

        X_1 = (mu A + I / mu) / 2,    M_1 = I/2 + (mu^2 A + A^{-1} / mu^2) / 4,
        X_{k+1} = X_k (I + M_k^{-1}) / 2,    M_{k+1} = I/2 + (M_k + M_k^{-1}) / 4,

    X_k -> A^{1/2} and M_k -> I.  Each matrix leaves the stack once its own
    max|M_k - I| < 1e-14, so matrix i's root is bitwise the root of
    a[i : i + 1] alone.  A singular or non-finite matrix, or one that has
    not converged after 50 steps (an eigenvalue on the negative real axis,
    where no principal root exists), raises IllConditionedError naming its
    stack index.  An empty stack is its own root.
    """
    a = _complex(a, "a stack of matrices", OperatorDomainError)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise OperatorDomainError(f"expected an (n, d, d) stack, got shape {a.shape}")
    d = a.shape[1]
    if not a.shape[0]:
        return a
    with np.errstate(invalid="ignore"):  # NaN entries give a NaN logdet, refused below
        _, logdet = np.linalg.slogdet(a)
    (bad,) = np.nonzero(~np.isfinite(logdet))
    if bad.size:
        raise IllConditionedError(
            f"matrix at stack index {bad[0]} is singular or not finite; it has no "
            f"principal square root", index=int(bad[0])
        )
    eye = np.eye(d, dtype=np.complex128)
    mu = np.exp(-logdet / (2 * d))[:, None, None]
    active = np.arange(a.shape[0])
    x = 0.5 * (mu * a + eye / mu)
    m = 0.5 * eye + 0.25 * (mu**2 * a + _inverse(a, active) / mu**2)
    out = np.empty_like(a)
    for _ in range(_ROOT_MAX_STEPS):
        done = np.abs(m - eye).max(axis=(1, 2)) < _ROOT_TOL
        if done.any():
            out[active[done]] = x[done]
            active, x, m = active[~done], x[~done], m[~done]
            if not active.size:
                return out
        m_inv = _inverse(m, active)
        x = 0.5 * (x + x @ m_inv)
        m = 0.5 * eye + 0.25 * (m + m_inv)
    raise IllConditionedError(
        f"square root iteration did not converge in {_ROOT_MAX_STEPS} steps at stack index "
        f"{active[0]}: no principal square root is within reach", index=int(active[0])
    )


def build_pair(alpha: np.ndarray, q: int) -> OperatorPair | list[OperatorPair]:
    """Construct tau = phi(alpha) and its sibling root tau^{-1} from one
    matrix square root, verify the defining residuals, and package the lot.

    `alpha` is one (d, d) matrix, giving one pair, or an (n, d, d) stack,
    giving a list of n pairs built together (none for an empty stack);
    pair i is bitwise the pair of alpha[i] built alone.  The certificate's
    singular values give each pair its `norm_alpha` and `norm_tau`.

    Raises OperatorDomainError when q is not an integer >= 2, or an alpha
    is not finite or is outside the open disc of radius 2 sqrt(q), and
    IllConditionedError when its square root does not converge or is not
    finite, or the computed pair fails its own residual bounds.  For a
    stack the error names the index of the first bad alpha, in its message
    and as `index`.
    """
    alpha = np.ascontiguousarray(_complex(alpha, "alpha", OperatorDomainError))
    single = alpha.ndim == 2
    stack = alpha[None] if single else alpha
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise OperatorDomainError(
            f"expected a square matrix or a stack of them, got shape {alpha.shape}"
        )
    q = _integer(q, "branching parameter", 2, OperatorDomainError)

    def where(i) -> str:
        return "" if single else f"alpha at stack index {i}: "

    (bad,) = np.nonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise OperatorDomainError(
            f"{where(bad[0])}matrix has non-finite entries", index=int(bad[0])
        )
    norm_alpha = np.linalg.svd(stack, compute_uv=False)[:, 0]
    radius = 2.0 * math.sqrt(q)
    (bad,) = np.nonzero(norm_alpha >= radius)
    if bad.size:
        raise OperatorDomainError(
            f"{where(bad[0])}spectral norm {norm_alpha[bad[0]]:.6g} is not inside the disc of "
            f"radius {radius:.6g}", index=int(bad[0])
        )
    d = stack.shape[1]
    eye = np.eye(d, dtype=np.complex128)
    root = 1j * principal_sqrt(4 * q * eye - stack @ stack)
    tau = (stack + root) / 2.0
    tau_inv = (stack - root) / (2.0 * q)
    # per alpha: the three residuals, tau and tau^{-1}, five spectral norms from one SVD call
    checks = np.stack(
        [tau @ tau - stack @ tau + q * eye, tau + q * tau_inv - stack, tau @ tau_inv - eye,
         tau, tau_inv], axis=1
    )
    (bad,) = np.nonzero(~np.isfinite(checks).all(axis=(1, 2, 3)))
    if bad.size:
        raise IllConditionedError(
            f"{where(bad[0])}matrix square root has non-finite entries", index=int(bad[0])
        )
    quad, total, inv, norm_tau, norm_tau_inv = np.linalg.svd(checks, compute_uv=False)[..., 0].T
    ok = (
        (quad <= _RESIDUAL_TOL * (1.0 + norm_alpha**2))
        & (total <= _RESIDUAL_TOL * (1.0 + norm_alpha))
        & (inv <= _RESIDUAL_TOL * (1.0 + norm_tau * norm_tau_inv))
    )
    residuals = [
        {"quad": a, "sum": b, "inv": c}
        for a, b, c in zip(quad.tolist(), total.tolist(), inv.tolist())
    ]
    (bad,) = np.nonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise IllConditionedError(
            f"{where(i)}functional calculus residuals exceed tolerance: {residuals[i]}",
            residuals=residuals[i], index=i,
        )
    pairs = [
        OperatorPair(q=q, alpha=a, tau=t, tau_inv=ti, residuals=r, norm_alpha=na, norm_tau=nt)
        for a, t, ti, r, na, nt in zip(
            stack, tau, tau_inv, residuals, norm_alpha.tolist(), norm_tau.tolist()
        )
    ]
    return pairs[0] if single else pairs


def power(pair: OperatorPair, k: int) -> np.ndarray:
    """tau^k, negative exponents through the sibling inverse; cached.

    Missing powers are filled in from the largest cached one of k's sign,
    tau^j = tau^(j - 1) @ tau (tau^(j + 1) @ tau^(-1) below zero).
    """
    k = _integer(k, "the exponent", None)
    cache = _expect(pair, OperatorPair, "an OperatorPair")._powers
    if not cache:
        cache.update({0: np.eye(pair.dim, dtype=np.complex128), 1: pair.tau, -1: pair.tau_inv})
    step = 1 if k > 0 else -1
    j = k
    while j not in cache:
        j -= step
    for j in range(j + step, k + step, step):
        cache[j] = cache[j - step] @ cache[step]
    return cache[k]


def numerically_singular(sing: np.ndarray) -> bool:
    """Whether singular values `sing`, largest first, are those of a
    numerically singular matrix: the smallest is at most
    1e-14 * max(1, largest), or not a number.  Anything but a nonempty
    vector of reals is an OperatorDomainError."""
    # singular values are real: through complex128 and back is exact
    sing = _complex(sing, "singular values", OperatorDomainError).real
    if sing.ndim != 1 or not sing.size:
        raise OperatorDomainError(
            f"expected a nonempty vector of singular values, got shape {sing.shape}"
        )
    return not sing[-1] > 1e-14 * max(1.0, sing[0])


def guard_spectrum(pair: OperatorPair) -> dict:
    """Report the margins of the two spectral safety conditions:

    (a) the distance from the spectrum of tau to +q and -q, and
    (b) the extreme singular values of tau - tau^{-1}, which must not be
        `numerically_singular` (halftree_preimage solves under that rule),

    raising SpectralGuardError unless both hold.  For an alpha that
    build_pair accepts both hold in exact arithmetic (+-q and +-1 are
    phi(+-(q+1)), outside the disc), so the guard catches rounding and
    forged pairs.  Anything but an OperatorPair is an OperatorDomainError.
    """
    _expect(pair, OperatorPair, "an OperatorPair", OperatorDomainError)
    lam = np.linalg.eigvals(pair.tau)
    margin = float(np.min(np.minimum(np.abs(lam - pair.q), np.abs(lam + pair.q))))
    sing = np.linalg.svd(pair.tau - pair.tau_inv, compute_uv=False)
    smin, smax = float(sing[-1]), float(sing[0])
    if not margin > 0.0 or numerically_singular(sing):
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
    """Random d x d complex matrix rescaled to three quarters of the disc radius.

    Raises OperatorDomainError when q is not an integer >= 2, and
    ConfigError when d is not an integer >= 1 or rng is not a
    numpy.random.Generator.
    """
    return _in_disc(d, _integer(q, "branching parameter", 2, OperatorDomainError), [rng])[0]


def _in_disc(d: int, q: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """One random_in_disc matrix per generator, as an (n, d, d) stack: each
    raw matrix is drawn from its own generator, then the stack is rescaled
    with one SVD call (matrix i bitwise random_in_disc(d, q, rngs[i]))."""
    d = _integer(d, "d", 1)
    for rng in rngs:
        _expect(rng, np.random.Generator, "a numpy.random.Generator")
    raw = np.array(
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for rng in rngs]
    ).reshape(len(rngs), d, d)
    nrm = np.linalg.svd(raw, compute_uv=False)[:, 0]
    scale = np.zeros_like(nrm)  # a zero matrix stays zero
    np.divide(_DISC_FRACTION * 2.0 * math.sqrt(q), nrm, out=scale, where=nrm > 0.0)
    return raw * scale[:, None, None]


def matrix_to_json_obj(a: np.ndarray) -> dict:
    return {
        "d": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in np.asarray(a).ravel()],
    }
