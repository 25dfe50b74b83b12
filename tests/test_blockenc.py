import numpy as np
import pytest

from entropybench.blockenc import (
    BlockEncoding,
    be_power,
    be_product,
    encode_density,
    encode_state_side,
    encoding_copy_cost,
    rescale,
)
from entropybench.numkernel import HermMatrix, op_norm, op_norm_dist
from entropybench.qsvtpoly import apply_poly, approx_pos_power
from entropybench.seeding import Stream
from entropybench.states import from_spectrum, random_density
from reference import mat_fun


def test_encode_pure_noiseless():
    rho = from_spectrum([1.0], 2)
    be = encode_density(rho, 0.1, noiseless=True)
    assert op_norm(be.encoded) == pytest.approx(np.pi / 4, abs=1e-12)
    assert np.allclose(be.encoded.mat, np.diag([np.pi / 4, 0.0]))
    assert be.eta == 0.1


def test_encode_cost_example():
    rho = from_spectrum([0.5, 0.5], 2)
    be = encode_density(rho, 0.01, noiseless=True)
    assert be.sample_cost == 461  # ceil(100 * ln 100)
    assert encoding_copy_cost(0.01) == 461


def test_encode_noisy_perturbation_norm():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.01, Stream(7))
    assert op_norm_dist(be.encoded, be.target) == pytest.approx(0.005, abs=1e-12)
    assert op_norm_dist(be.encoded, be.target) <= be.eta


def test_encode_rejects_bad_delta():
    rho = from_spectrum([1.0], 2)
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            encode_density(rho, bad)


def test_product_squares_spectrum():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.01, noiseless=True)
    sq = be_product(be, be)
    expect = sorted(((np.pi * x / 4) ** 2 for x in (0.5, 0.3, 0.2)), reverse=True)
    assert np.allclose(sq.target.spectrum.eigenvalues, expect, atol=1e-12)
    assert sq.sample_cost == 2 * be.sample_cost


def test_product_eta_composition():
    rho = random_density(3, 3, seed=5)
    b1 = encode_density(rho, 0.02, Stream(1))
    b2 = encode_density(rho, 0.03, Stream(2))
    prod = be_product(b1, b2)
    assert prod.eta == pytest.approx(0.02 + 0.03 + 0.02 * 0.03)
    assert op_norm_dist(prod.encoded, prod.target) <= prod.eta


def test_product_exact_inputs_zero_eta():
    h = HermMatrix(np.eye(2, dtype=complex) / 2)
    be = BlockEncoding(encoded=h, target=h, dist_bound=0.0)
    assert be_product(be, be).eta == 0.0


def test_product_dimension_mismatch():
    a = encode_density(from_spectrum([1.0], 2), 0.1, noiseless=True)
    b = encode_density(from_spectrum([1.0], 4), 0.1, noiseless=True)
    with pytest.raises(ValueError):
        be_product(a, b)


def test_product_associative_noiseless():
    # commuting targets: three polynomial transforms of one random state
    rho = random_density(4, 4, seed=8)
    base = encode_density(rho, 0.1, noiseless=True)
    b1 = base
    b2 = be_product(base, base)
    b3 = be_product(b2, base)
    left = be_product(be_product(b1, b2), b3)
    right = be_product(b1, be_product(b2, b3))
    assert op_norm_dist(left.target, right.target) <= 1e-12
    assert abs(left.eta - right.eta) <= 1e-12


def test_kfold_error_accumulation():
    # per-factor budget D/k keeps the k-fold error within 1.1 * D
    rho = random_density(4, 4, seed=13)
    for k in (2, 4, 8):
        for big_delta in (0.02, 0.1):
            be = be_power(rho, k, big_delta / k, Stream(17))
            assert be.eta <= 1.1 * big_delta
            assert op_norm_dist(be.encoded, be.target) <= be.eta


def test_rescale_removes_half():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.02, Stream(3))
    half = be_product(be, be)
    doubled = rescale(half, 2.0)
    assert op_norm_dist(doubled.target, mat_fun(half.target, lambda x: 2 * x)) <= 1e-12
    assert doubled.eta == pytest.approx(2 * half.eta)


def test_rescale_clipping_carries_overshoot():
    # a noisy corner whose doubled top eigenvalue pokes above 1 is clipped,
    # and the carried bound grows by the overshoot
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = (g + g.conj().T) / 2
    p *= 4e-4 / np.max(np.abs(np.linalg.eigvalsh(p)))
    target = HermMatrix(np.diag([0.5, 0.3, 0.1]).astype(complex))
    be = BlockEncoding(
        encoded=HermMatrix(target.mat + p), target=target, eta=1e-3, dist_bound=4e-4 + 1e-14
    )
    out = rescale(be, 2.0)
    overshoot = 2 * op_norm(be.encoded) - 1.0
    assert overshoot > 0
    assert out.dist_bound >= 8e-4 + overshoot
    assert op_norm_dist(out.encoded, out.target) <= out.dist_bound <= out.eta


def test_every_encoding_eta_never_underreports():
    rho = random_density(5, 4, seed=21)
    be = encode_density(rho, 0.05, Stream(9))
    prods = [be, be_product(be, be), be_power(rho, 3, 0.01, Stream(4))]
    for b in prods:
        assert op_norm_dist(b.encoded, b.target) <= b.eta + 1e-12


def test_three_fold_budget_split():
    # three factors at budget/3 each accumulate to at most budget + budget^2
    rho = random_density(4, 4, seed=30)
    eps = 0.09
    be = be_power(rho, 3, eps / 3, Stream(5))
    assert be.eta <= eps + eps**2
    assert op_norm_dist(be.encoded, be.target) <= be.eta


def _trial(be, i):
    """Trial i of a stacked encoding, as (encoded bits, cached spectrum bits, eta, dist_bound)."""
    spec = be.encoded._cache.get("spec")
    eigs = None if spec is None else (spec.eigenvalues[i].tobytes(), spec.eigenvectors[i].tobytes())
    bound = None if np.isnan(be.dist_bound[i]) else float(be.dist_bound[i])
    return be.encoded.mat[i].tobytes(), eigs, float(be.eta[i]), bound


def _single(be):
    spec = be.encoded._cache.get("spec")
    eigs = None if spec is None else (spec.eigenvalues.tobytes(), spec.eigenvectors.tobytes())
    return be.encoded.mat.tobytes(), eigs, be.eta, None if np.isnan(be.dist_bound) else be.dist_bound


def test_a_stack_equals_its_trials_built_one_by_one():
    # draws a stack of encodings from one stream and runs it through every
    # builder; a pure state's corner sits at norm 1, so some of its
    # perturbations are clipped and carry no bound.  One-trial builds
    # drawn in turn from a fresh copy of the stream give its trials.
    trials = 6
    pure = from_spectrum([1.0], 2)
    rho = random_density(4, 3, seed=8)
    fit = approx_pos_power(0.5, 4 / (np.pi * rho.meta.rho_min), 1e-3)

    def chain(stream, n):
        side = encode_state_side(pure, 0.2, stream.child(0), trials=n)
        be = rescale(apply_poly(encode_density(rho, 0.01, stream.child(1), trials=n), fit), 2.0)
        return side, be_product(be_power(rho, 2, 0.02, stream.child(2), trials=n), be)

    stacks = chain(Stream(3), trials)
    bounds = stacks[0].dist_bound
    assert np.isnan(bounds).any() and not np.isnan(bounds).all()
    stream = Stream(3)
    for i in range(trials):
        for stacked, one in zip(stacks, chain(stream, 1)):
            assert _trial(stacked, i) == _single(one)
            assert stacked.target is one.target or stacked.target.mat.tobytes() == one.target.mat.tobytes()
            assert stacked.sample_cost == one.sample_cost


def test_one_seed_draws_its_noise_as_two_gaussian_matrices():
    # the real and then the imaginary part of the perturbation direction
    rho = random_density(4, 3, seed=8)
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    p = h * (0.025 / float(np.max(np.abs(np.linalg.eigvalsh(h)))))
    be = encode_density(rho, 0.05, Stream(17))
    assert be.encoded.mat.tobytes() == HermMatrix(be.target.mat + p).mat.tobytes()


def test_power_factors_draw_from_distinct_streams(monkeypatch):
    # factor j of `be_power` draws its noise from child j of its stream
    import entropybench.blockenc as blockenc

    rho = random_density(4, 3, seed=8)
    factors = []
    real = blockenc.encode_density
    monkeypatch.setattr(blockenc, "encode_density", lambda *a, **kw: factors.append(real(*a, **kw)) or factors[-1])
    be_power(rho, 2, 0.02, Stream(5), trials=3)
    monkeypatch.undo()
    noise = [f.encoded.mat - f.target.mat for f in factors]
    assert len(noise) == 2 and not np.allclose(noise[0], noise[1])
    for j, f in enumerate(factors):
        assert f.encoded.mat.tobytes() == encode_density(rho, 0.02, Stream(5).child(j), trials=3).encoded.mat.tobytes()
