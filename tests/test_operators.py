import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracles
from treerep import operators as op
from treerep import representation as rp
from treerep.errors import (
    BranchCutError,
    ConfigError,
    IllConditionedError,
    OperatorDomainError,
    SpectralGuardError,
)


# -- spectral norm ------------------------------------------------------------


def test_spectral_norm_fixed_values():
    assert op.spectral_norm(np.zeros((3, 3))) == 0.0
    assert abs(op.spectral_norm(np.eye(4)) - 1.0) < 1e-10
    assert abs(op.spectral_norm(np.diag([3.0, -1.0])) - 3.0) < 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40)
def test_spectral_norm_matches_lapack(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    want = np.linalg.norm(a, 2)
    assert abs(op.spectral_norm(a) - want) <= 1e-10 * max(1.0, want)
    assert op.spectral_norm(a) == scipy.linalg.svdvals(a)[0]


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(OperatorDomainError):
        op.spectral_norm(np.zeros((2, 3)))
    with pytest.raises(OperatorDomainError):
        op.spectral_norm(np.array([[np.nan, 0], [0, 1]]))
    for bad in (np.inf, -np.inf):
        with pytest.raises(OperatorDomainError):
            op.spectral_norm(np.array([[1, 0], [0, complex(0, bad)]]))


# -- the scalar conformal map -------------------------------------------------


def test_phi_fixed_values():
    assert abs(op.phi_scalar(0.0, 4) - 2j) < 1e-12
    assert abs(op.phi_scalar(0.0, 2) - 1j * math.sqrt(2)) < 1e-12


def test_phi_modulus_on_real_window():
    # the open real interval (-2 sqrt q, 2 sqrt q) maps onto the circle of
    # radius sqrt q
    for q in (2, 3, 5):
        r = 2 * math.sqrt(q)
        for x in np.linspace(-0.99 * r, 0.99 * r, 17):
            z = op.phi_scalar(complex(x), q)
            assert abs(abs(z) - math.sqrt(q)) < 1e-10


def test_phi_solves_the_quadratic():
    rng = np.random.default_rng(21)
    for q in (2, 3):
        for _ in range(50):
            z = complex(*rng.standard_normal(2)) * math.sqrt(q)
            if z.imag == 0:
                continue
            w = op.phi_scalar(z, q)
            assert abs(w * w - z * w + q) < 1e-9 * max(1.0, abs(z) ** 2)


def test_phi_avoids_plus_minus_q_on_the_disc():
    # dense grid of the open disc of radius 2 sqrt q
    for q in (2, 3):
        r = 2 * math.sqrt(q)
        for rho in np.linspace(0.05, 0.98, 12):
            for theta in np.linspace(0.01, 2 * math.pi - 0.01, 24):
                z = rho * r * complex(math.cos(theta), math.sin(theta))
                w = op.phi_scalar(z, q)
                assert abs(w) > 0
                assert abs(w - q) > 1e-6 and abs(w + q) > 1e-6


def test_branch_cut_is_the_nonnegative_reals():
    with pytest.raises(BranchCutError):
        op.phi_scalar(3.0, 2)  # z^2 - 4q = 1 >= 0
    with pytest.raises(BranchCutError):
        op.phi_scalar(2 * math.sqrt(2), 2)  # lands exactly on 0
    # just off the cut on either side: finite values with a jump
    up = op.phi_scalar(3.0 + 1e-12j, 2)
    down = op.phi_scalar(3.0 - 1e-12j, 2)
    assert abs(up - down) > 0.1


def phi_or_cut(phi, z, q):
    try:
        return phi(z, q)
    except BranchCutError:
        return None


def test_phi_matches_the_cut_root_oracle():
    # the principal root of 4q - z^2 against the atan2 root of z^2 - 4q:
    # the same cut (the real axis outside the disc, its rim +-2 sqrt q,
    # +-3 with either signed zero; at q = 4 the rim makes 4q - z^2 exactly
    # 0) and values within 1e-13
    rng = np.random.default_rng(22)
    for q in (2, 3, 4, 5):
        r = 2 * math.sqrt(q)
        points = [complex(x, s) for x in (3.0, -3.0, r, -r) for s in (0.0, -0.0)]
        points += [complex(x) for x in np.linspace(-2 * r, 2 * r, 41)]
        points += [complex(x, s * 1e-300) for x in np.linspace(-2 * r, 2 * r, 9) for s in (1, -1)]
        points += list(r * (rng.standard_normal(400) + 1j * rng.standard_normal(400)))
        for z in points:
            got, want = phi_or_cut(op.phi_scalar, z, q), phi_or_cut(oracles.phi_cut_oracle, z, q)
            assert (got is None) == (want is None), z
            if want is not None:
                assert abs(got - want) <= 1e-13 * abs(want), z


# -- pair construction --------------------------------------------------------


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, r = np.linalg.qr(z)
    return u * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_residuals_within_bounds(pair, tol=1e-9):
    na = np.linalg.norm(pair.alpha, 2)
    quad, lin, inv = residuals_direct(pair)
    assert quad <= tol * (1 + na * na)
    assert lin <= tol * (1 + na)
    assert inv <= tol * (1 + np.linalg.norm(pair.tau, 2) * np.linalg.norm(pair.tau_inv, 2))


def residuals_direct(pair):
    d = pair.dim
    alpha, tau, tinv = pair.alpha, pair.tau, pair.tau_inv
    eye = np.eye(d)
    return (
        np.linalg.norm(tau @ tau - alpha @ tau + pair.q * eye, 2),
        np.linalg.norm(tau + pair.q * tinv - alpha, 2),
        np.linalg.norm(tau @ tinv - eye, 2),
    )


def test_zero_alpha_gives_scaled_rotation():
    pair = op.build_pair(np.zeros((3, 3), dtype=complex), 3)
    assert np.linalg.norm(pair.tau - 1j * math.sqrt(3) * np.eye(3)) < 1e-12
    assert np.linalg.norm(pair.tau_inv + 1j / math.sqrt(3) * np.eye(3)) < 1e-12


def test_diagonal_alpha_gives_diagonal_phi():
    diag = np.array([0.3 + 0.1j, -0.5 + 0.4j, 1.0 + 1.0j])
    pair = op.build_pair(np.diag(diag), 2)
    want = np.diag([op.phi_scalar(z, 2) for z in diag])
    assert np.linalg.norm(pair.tau - want) < 1e-9


def test_build_pair_residuals_seeded():
    rng = np.random.default_rng(77)
    for q in (2, 3):
        for d in (1, 2, 4, 6):
            for _ in range(5):
                pair = op.build_pair(op.random_in_disc(d, q, rng), q)
                assert_residuals_within_bounds(pair)
                assert pair.residuals["quad"] >= 0


def test_build_pair_rejects_large_alpha():
    with pytest.raises(OperatorDomainError):
        op.build_pair(np.diag([2 * math.sqrt(2) + 0.01]).astype(complex), 2)


def test_build_pair_takes_only_an_integer_q():
    alpha = op.random_in_disc(2, 2, np.random.default_rng(36))
    for q in (2.5, 2.0, "2", None, 1):
        with pytest.raises(OperatorDomainError, match="branching parameter"):
            op.build_pair(alpha, q)
    pair = op.build_pair(alpha, np.int64(2))
    assert type(pair.q) is int and pair.q == 2
    assert np.array_equal(pair.tau, op.build_pair(alpha, 2).tau)


@pytest.mark.parametrize(
    "z, q",
    [(float("nan"), 2), (complex(1, float("inf")), 3), (-float("inf"), 2),
     (0.1, 2.5), (0.1, 2.0), (0.1, 1), (0.1, True), (0.1, "2"), (0.1, None)],
)
def test_phi_scalar_takes_build_pairs_inputs_only(z, q):
    # build_pair's rules: q an integer >= 2, and a finite alpha
    with pytest.raises(OperatorDomainError):
        op.phi_scalar(z, q)


def test_phi_scalar_takes_a_numpy_integer_q():
    assert op.phi_scalar(0.5 + 0.25j, np.int64(3)) == op.phi_scalar(0.5 + 0.25j, 3)


def test_domain_guard_is_conservative_near_the_boundary():
    # the top two singular values differ by 1e-3 relative, which a power
    # iteration settles below the true norm; the exact norm is just outside
    r = 2 * math.sqrt(2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        alpha = u @ np.diag([r * (1 + 1e-10), r * (1 - 1e-3), 0.5]) @ v.conj().T
        with pytest.raises(OperatorDomainError):
            op.build_pair(alpha, 2)


def test_alpha_just_inside_the_disc_builds():
    # nearly equal top singular values, just inside the radius: a valid
    # input, so the guard must accept it and the residuals must hold
    r = 2 * math.sqrt(2)
    for seed in range(20):
        u = random_unitary(3, np.random.default_rng(seed))
        alpha = u @ np.diag([r * (1 - 1e-6), r * (1 - 1e-5), 0.5]) @ u.conj().T
        assert_residuals_within_bounds(op.build_pair(alpha, 2))


def test_random_in_disc_stays_in_domain():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = op.random_in_disc(5, 3, rng)
        assert op.spectral_norm(a) < 2 * math.sqrt(3)


@pytest.mark.parametrize(
    "d, q, rng, error, expected",
    [
        (2, 1, np.random.default_rng(0), OperatorDomainError, "integer >= 2, got 1"),
        (2, 2.5, np.random.default_rng(0), OperatorDomainError, "integer >= 2, got 2.5"),
        (2.0, 2, np.random.default_rng(0), ConfigError, "d must be an integer >= 1, got 2.0"),
        (-1, 2, np.random.default_rng(0), ConfigError, "d must be an integer >= 1, got -1"),
        (2, 2, None, ConfigError, "expected a numpy.random.Generator, got NoneType"),
    ],
)
def test_random_in_disc_checks_its_input(d, q, rng, error, expected):
    with pytest.raises(error, match=expected):
        op.random_in_disc(d, q, rng)


@pytest.mark.parametrize("d, q", [(1, 2), (2, 2), (3, 3), (6, 5)])
def test_a_stack_of_disc_draws_is_each_draw_bitwise(d, q):
    # each trial draws its raw matrix from its own generator; one SVD call
    # rescales the stack, bit for bit the per-matrix spectral-norm rescale
    seeds = range(12)
    stack = op._in_disc(d, q, [np.random.default_rng(s) for s in seeds])
    for s, alpha in zip(seeds, stack):
        rng = np.random.default_rng(s)
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        want = raw * (0.75 * 2.0 * math.sqrt(q) / op.spectral_norm(raw))
        assert np.array_equal(alpha, want)
        assert np.array_equal(op.random_in_disc(d, q, np.random.default_rng(s)), want)


def test_defective_jordan_block_meets_the_residual_contract():
    # defective matrix: no eigenvector basis exists, and the square root
    # must still satisfy the residual contract
    j = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    pair = op.build_pair(j, 2)
    quad, lin, inv = residuals_direct(pair)
    assert quad <= 1e-9 * (1 + np.linalg.norm(j, 2) ** 2)
    assert lin <= 1e-9 * (1 + np.linalg.norm(j, 2))
    assert inv <= 1e-8


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_jordan_blocks_meet_residual_bounds(size, q):
    for lam in (0.4, -0.7 + 0.3j, 0.2j):
        j = lam * np.eye(size, dtype=complex) + np.eye(size, k=1, dtype=complex)
        pair = op.build_pair(j, q)
        assert_residuals_within_bounds(pair)
        # tau is a function of alpha, so it is upper triangular with
        # phi(lam) on the diagonal
        assert np.allclose(np.diagonal(pair.tau), op.phi_scalar(lam, q), atol=1e-12)
        assert np.allclose(np.tril(pair.tau, -1), 0, atol=1e-12)


@pytest.mark.parametrize("name", ["perturbed", "nan"])
def test_bad_square_root_is_reported_not_silent(monkeypatch, name):
    exact = op.principal_sqrt

    def corrupt(a):
        root = exact(a)
        if name == "nan":
            root[..., 0, 0] = np.nan
            return root
        return root + 1e-3 * np.eye(root.shape[-1])

    monkeypatch.setattr(op, "principal_sqrt", corrupt)
    alpha = op.random_in_disc(3, 2, np.random.default_rng(9))
    with pytest.raises(IllConditionedError):
        op.build_pair(alpha, 2)


def test_spectral_mapping_sanity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        alpha = op.random_in_disc(4, 2, rng)
        pair = op.build_pair(alpha, 2)
        alpha_eigs = np.linalg.eigvals(alpha)
        for lam in np.linalg.eigvals(pair.tau):
            back = lam + 2 / lam
            assert min(abs(back - mu) for mu in alpha_eigs) < 1e-7


# -- the square root: scipy.linalg.sqrtm as the oracle --------------------------


def assert_matches_sqrtm(b, rel=1e-12):
    root = op.principal_sqrt(b)
    for bi, ri in zip(b, root):
        want = scipy.linalg.sqrtm(bi)
        assert np.linalg.norm(ri - want, 2) <= rel * np.linalg.norm(want, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 6, 16])
def test_principal_sqrt_matches_sqrtm_on_random_alpha(q, d):
    rng = np.random.default_rng([q, d])
    alphas = np.stack([op.random_in_disc(d, q, rng) for _ in range(20)])
    assert_matches_sqrtm(4 * q * np.eye(d) - alphas @ alphas)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("size", [2, 3, 5])
def test_principal_sqrt_matches_sqrtm_on_jordan_alpha(q, size):
    alphas = np.stack([
        lam * np.eye(size, dtype=complex) + np.eye(size, k=1, dtype=complex)
        for lam in (0.4, -0.7 + 0.3j, 0.2j, 0.9 * math.sqrt(q))
    ])
    assert_matches_sqrtm(4 * q * np.eye(size) - alphas @ alphas)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_principal_sqrt_near_the_rim_matches_sqrtm(q):
    # a real eigenvalue at 0.999999 of the radius next to a non-normal
    # block, in a random basis: 4q - alpha^2 has an eigenvalue near 8e-6 q
    rng = np.random.default_rng(q)
    r = 2 * math.sqrt(q)
    for _ in range(5):
        block = np.zeros((4, 4), dtype=complex)
        block[0, 0] = 0.999999 * r
        block[1:, 1:] = np.diag([0.5, -0.3j, 0.2]) + 0.5 * np.triu(rng.standard_normal((3, 3)), 1)
        u = random_unitary(4, rng)
        alpha = u @ block @ u.conj().T
        b = (4 * q * np.eye(4) - alpha @ alpha)[None]
        assert_matches_sqrtm(b, rel=1e-9)
        root = op.principal_sqrt(b)[0]
        assert np.linalg.norm(root @ root - b[0], 2) <= 1e-11 * np.linalg.norm(b[0], 2)
        assert_residuals_within_bounds(op.build_pair(alpha, q))


def test_stacked_build_is_bitwise_the_single_build():
    rng = np.random.default_rng(12)
    for q, d in ((2, 1), (2, 2), (3, 6), (5, 16)):
        alphas = np.stack([op.random_in_disc(d, q, rng) for _ in range(9)])
        pairs = op.build_pair(alphas, q)
        assert len(pairs) == 9
        for alpha, stacked in zip(alphas, pairs):
            alone = op.build_pair(alpha, q)
            assert stacked.tau.tobytes() == alone.tau.tobytes()
            assert stacked.tau_inv.tobytes() == alone.tau_inv.tobytes()
            assert stacked.residuals == alone.residuals


@pytest.mark.parametrize("d", [1, 2, 3])
def test_negative_real_eigenvalue_has_no_principal_root(d):
    # no principal square root exists: the iteration must raise, never
    # hand back NaN or a wrong root
    rng = np.random.default_rng(d)
    s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for lam in (-1.0, -2.5, -1e-3):
        a = s @ np.diag([lam] + [1.0 + 1j] * (d - 1)) @ np.linalg.inv(s)
        with pytest.raises(IllConditionedError) as info:
            op.principal_sqrt(np.stack([np.eye(d), a]))
        assert info.value.index == 1


def test_singular_or_non_finite_matrix_has_no_principal_root():
    for bad in (np.zeros((2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])):
        with pytest.raises(IllConditionedError) as info:
            op.principal_sqrt(np.stack([np.eye(2), np.eye(2), bad]))
        assert info.value.index == 2


def test_an_empty_stack_has_an_empty_root_and_no_pairs():
    empty = np.zeros((0, 2, 2), dtype=np.complex128)
    assert op.principal_sqrt(empty).shape == (0, 2, 2)
    assert op.build_pair(empty, 2) == []


def test_stacked_build_names_the_first_bad_alpha(monkeypatch):
    rng = np.random.default_rng(13)
    alphas = np.stack([op.random_in_disc(2, 2, rng) for _ in range(6)])
    outside = alphas.copy()
    outside[[2, 4]] *= 2
    with pytest.raises(OperatorDomainError, match="stack index 2") as info:
        op.build_pair(outside, 2)
    assert info.value.index == 2
    exact = op.principal_sqrt

    def corrupt(a):
        root = exact(a)
        root[3:] += 1e-3 * np.eye(a.shape[-1])
        return root

    monkeypatch.setattr(op, "principal_sqrt", corrupt)
    with pytest.raises(IllConditionedError, match="stack index 3") as info:
        op.build_pair(alphas, 2)
    assert info.value.index == 3
    assert info.value.residuals["quad"] > 0


# -- powers -------------------------------------------------------------------


def test_power_basics():
    rng = np.random.default_rng(31)
    pair = op.build_pair(op.random_in_disc(3, 2, rng), 2)
    assert np.array_equal(op.power(pair, 0), np.eye(3, dtype=complex))
    assert np.array_equal(op.power(pair, 1), pair.tau)
    assert np.array_equal(op.power(pair, -1), pair.tau_inv)
    t2 = op.power(pair, 2) @ op.power(pair, -1)
    assert np.linalg.norm(t2 - pair.tau, 2) < 1e-10


def test_power_is_a_homomorphism():
    rng = np.random.default_rng(32)
    pair = op.build_pair(op.random_in_disc(3, 3, rng), 3)
    nt = np.linalg.norm(pair.tau, 2)
    for j in range(-4, 5):
        for k in range(-4, 5):
            lhs = op.power(pair, j + k)
            rhs = op.power(pair, j) @ op.power(pair, k)
            bound = max(abs(j) + abs(k), 1) * 1e-11 * max(nt, 1 / nt) ** (abs(j) + abs(k))
            assert np.linalg.norm(lhs - rhs, 2) <= max(bound, 1e-10)


def test_power_cache_is_stable():
    rng = np.random.default_rng(33)
    pair = op.build_pair(op.random_in_disc(2, 2, rng), 2)
    first = op.power(pair, 5).copy()
    again = op.power(pair, 5)
    assert np.array_equal(first, again)


def test_power_is_the_left_fold_in_any_call_order():
    # tau^k is ((tau tau) tau) ... bit for bit however the cache was filled
    rng = np.random.default_rng(34)
    alpha = op.random_in_disc(3, 2, rng)
    for order in ((7, -6, 3, 12, -2, -9), (12, -9), (-9, 12, 7, 3)):
        pair = op.build_pair(alpha, 2)
        got = {k: op.power(pair, k).copy() for k in order}
        for k, mat in got.items():
            base = pair.tau if k > 0 else pair.tau_inv
            want = base
            for _ in range(abs(k) - 1):
                want = want @ base
            assert np.array_equal(mat, want), (order, k)


def test_power_of_a_large_exponent_does_not_recurse():
    # ten times Python's default recursion limit; a rotation keeps every
    # power finite
    def rotation(theta):
        return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])

    rot = rotation(0.3).astype(np.complex128)
    pair = op.OperatorPair(2, np.zeros((2, 2)), rot, rot.T, {}, 0.0, 1.0)
    k = 10**4
    assert np.abs(op.power(pair, k) - rotation(0.3 * k)).max() < 1e-10
    assert np.abs(op.power(pair, -k) - rotation(-0.3 * k)).max() < 1e-10


@pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
def test_power_refuses_a_non_integer_exponent(k):
    pair = op.build_pair(np.zeros((2, 2)), 2)
    with pytest.raises(ConfigError):
        op.power(pair, k)


def test_power_takes_numpy_exponents_and_refuses_bools():
    pair = op.build_pair(op.random_in_disc(2, 3, np.random.default_rng(35)), 3)
    for k in (3, -2):
        assert np.array_equal(op.power(pair, np.int64(k)), op.power(pair, k))
        assert np.array_equal(op.power(pair, np.int8(k)), op.power(pair, k))
    assert all(type(k) is int for k in pair._powers)
    for k in (True, False):
        with pytest.raises(ConfigError) as err:
            op.power(pair, k)
        assert str(err.value) == f"the exponent must be an integer, got {k}"


# -- guards -------------------------------------------------------------------


def test_guard_spectrum_zero_alpha():
    pair = op.build_pair(np.zeros((2, 2), dtype=complex), 3)
    report = op.guard_spectrum(pair)
    assert abs(report["margin_to_pm_q"] - math.sqrt(9 + 3)) < 1e-9
    # tau - tau_inv = i(sqrt q + 1/sqrt q) I
    want = math.sqrt(3) + 1 / math.sqrt(3)
    assert abs(report["sigma_min_diff"] - want) < 1e-9
    assert abs(report["sigma_max_diff"] - want) < 1e-9


def test_guard_spectrum_random_trials():
    rng = np.random.default_rng(100)
    for trial in range(100):
        q = 2 if trial % 2 else 3
        d = 1 + trial % 5
        pair = op.build_pair(op.random_in_disc(d, q, rng), q)
        report = op.guard_spectrum(pair)
        assert report["margin_to_pm_q"] > 0
        assert report["sigma_min_diff"] > 0
        # oracle: smallest singular value straight from LAPACK
        svals = np.linalg.svd(pair.tau - pair.tau_inv, compute_uv=False)
        assert abs(report["sigma_min_diff"] - svals[-1]) < 1e-9 * max(1, svals[0])


def test_guard_spectrum_flags_a_poisoned_pair():
    rng = np.random.default_rng(101)
    pair = op.build_pair(op.random_in_disc(2, 2, rng), 2)
    forged = op.OperatorPair(
        q=pair.q,
        alpha=pair.alpha,
        tau=np.diag([2.0 + 0j, 1j]),  # eigenvalue exactly at q
        tau_inv=np.diag([0.5 + 0j, -1j]),
        residuals=pair.residuals,
        norm_alpha=pair.norm_alpha,
        norm_tau=2.0,
    )
    with pytest.raises(SpectralGuardError):
        op.guard_spectrum(forged)


def test_guard_spectrum_rejects_a_singular_difference():
    # tau - tau^{-1} = 0: a guard error, not a ZeroDivisionError from cond_diff
    pair = op.build_pair(np.zeros((2, 2), dtype=complex), 2)
    forged = op.OperatorPair(
        q=2, alpha=pair.alpha, tau=np.eye(2, dtype=complex), tau_inv=np.eye(2, dtype=complex),
        residuals=pair.residuals, norm_alpha=pair.norm_alpha, norm_tau=1.0,
    )
    with pytest.raises(SpectralGuardError, match="margin_to_pm_q=1.0, sigma_min_diff=0.0"):
        op.guard_spectrum(forged)


def test_guard_spectrum_rejects_a_numerically_singular_difference():
    # tau - tau^{-1} = diag(1, 1e-18): sigma_min is positive but 1e-18 of
    # sigma_max, so the guard refuses the pair halftree_preimage refuses
    pair = op.build_pair(np.zeros((2, 2), dtype=complex), 2)
    forged = op.OperatorPair(
        q=2, alpha=pair.alpha, tau=np.diag([1.5 + 0j, 1e-18]), tau_inv=np.diag([0.5 + 0j, 0]),
        residuals=pair.residuals, norm_alpha=pair.norm_alpha, norm_tau=1.5,
    )
    with pytest.raises(SpectralGuardError, match="sigma_min_diff=1e-18"):
        op.guard_spectrum(forged)
    with pytest.raises(SpectralGuardError):
        rp.halftree_preimage(forged, np.array([1.0, 0.0]))


@pytest.mark.parametrize("pair", ["x", None, np.eye(2)], ids=["str", "None", "matrix"])
def test_guard_spectrum_refuses_what_is_not_a_pair(pair):
    with pytest.raises(OperatorDomainError, match="expected an OperatorPair"):
        op.guard_spectrum(pair)


def test_pair_norms_are_the_spectral_norms():
    rng = np.random.default_rng(102)
    for q in (2, 3, 5):
        for d in (1, 2, 6):
            alphas = np.stack([op.random_in_disc(d, q, rng) for _ in range(5)])
            for pair in op.build_pair(alphas, q):
                assert pair.norm_alpha == op.spectral_norm(pair.alpha)
                assert pair.norm_tau == op.spectral_norm(pair.tau)


# -- serialization ------------------------------------------------------------


def test_matrix_json_round_trip():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = op.matrix_to_json_obj(m)
    assert obj["d"] == 3
    assert len(obj["entries"]) == 9
    # row-major [re, im] pairs: the entries rebuild the matrix losslessly
    assert np.array_equal((np.array(obj["entries"]) @ [1, 1j]).reshape(3, 3), m)
