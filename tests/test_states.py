import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropybench.numkernel import op_norm_dist, HermMatrix, with_eigenvalues
from entropybench.states import (
    DensityMatrix,
    exact_entropies,
    from_spectrum,
    random_density,
)


def test_from_spectrum_direct():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    assert np.allclose(np.diag(rho.matrix.mat).real, [0.5, 0.3, 0.2])


def test_from_spectrum_pure_padded():
    rho = from_spectrum([1], 4)
    assert rho.dim == 4
    assert rho.meta.rank == 1
    rec = exact_entropies(rho, 1.0)
    assert rec.entropy == pytest.approx(0.0, abs=1e-12)


def test_from_spectrum_maximally_mixed():
    rho = from_spectrum([0.25] * 4, 4)
    for a in (0.5, 2.0, 3.0):
        assert exact_entropies(rho, a).entropy == pytest.approx(np.log(4), abs=1e-12)


def test_from_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        from_spectrum([0.5, 0.6], 2)
    with pytest.raises(ValueError):
        from_spectrum([-0.1, 1.1], 2)
    with pytest.raises(ValueError):
        from_spectrum([0.5] * 3, 2)


def test_random_density_pure():
    rho = random_density(4, 1, seed=5)
    rec = exact_entropies(rho, 1.0)
    assert rec.entropy == pytest.approx(0.0, abs=1e-9)
    for a in (0.5, 2.0, 3.7):
        assert exact_entropies(rho, a).tr_pow_alpha == pytest.approx(1.0, abs=1e-9)


def test_random_density_full_rank():
    rho = random_density(4, 4, seed=7)
    assert rho.meta.rank == 4
    assert rho.meta.rho_min > 0


def test_random_density_rank_and_purity_bound():
    rho = random_density(8, 3, seed=42)
    rec = exact_entropies(rho, 2.0)
    assert rec.meta.rank == 3
    assert rec.tr_pow_alpha >= 1.0 / 3 - 1e-12


def test_random_density_deterministic():
    a = random_density(6, 3, seed=11)
    b = random_density(6, 3, seed=11)
    assert np.array_equal(a.matrix.mat, b.matrix.mat)


def test_random_density_rejects_rank():
    with pytest.raises(ValueError):
        random_density(4, 5, seed=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), d=st.integers(2, 16), r=st.integers(1, 4))
def test_random_density_invariants(seed, d, r):
    r = min(r, d)
    rho = random_density(d, r, seed)
    assert abs(float(np.trace(rho.matrix.mat).real) - 1.0) <= 1e-10
    eigs = rho.spectrum.eigenvalues
    assert np.min(eigs) >= -1e-12
    assert rho.meta.rank == r
    assert rho.meta.purity >= 1.0 / r - 1e-12


def test_entropy_examples():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    r2 = exact_entropies(rho, 2.0)
    assert r2.tr_pow_alpha == pytest.approx(0.38, abs=1e-14)
    assert r2.entropy == pytest.approx(-np.log(0.38), abs=1e-12)
    assert r2.entropy == pytest.approx(0.96758, abs=1e-5)
    r1 = exact_entropies(rho, 1.0)
    by_hand = -(0.5 * np.log(0.5) + 0.3 * np.log(0.3) + 0.2 * np.log(0.2))
    assert r1.entropy == pytest.approx(by_hand, abs=1e-14)
    assert r1.entropy == pytest.approx(1.029653, abs=1e-6)
    r3 = exact_entropies(from_spectrum([0.25] * 4, 4), 3.0)
    assert r3.tr_pow_alpha == pytest.approx(0.0625, abs=1e-14)
    assert r3.entropy == pytest.approx(np.log(4), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0, 2])
def test_a_pure_state_has_entropy_plus_zero(alpha):
    # -sum(1 * log 1) and log(1) / (1 - alpha > 0) are both -0.0 in floats
    entropy = exact_entropies(from_spectrum([1.0], 4), alpha).entropy
    assert entropy == 0.0 and repr(entropy) == "0.0"


def test_entropy_rejects_nonpositive_alpha():
    rho = from_spectrum([1.0], 2)
    with pytest.raises(ValueError):
        exact_entropies(rho, 0.0)
    with pytest.raises(ValueError):
        exact_entropies(rho, -1.0)


def test_renyi_continuity_at_one():
    rho = random_density(8, 4, seed=3)
    sv = exact_entropies(rho, 1.0).entropy
    lo = exact_entropies(rho, 1.0 + 1e-6).entropy
    hi = exact_entropies(rho, 1.0 - 1e-6).entropy
    assert lo <= sv + 1e-12 <= hi + 2e-12
    assert abs(lo - sv) <= 1e-4 and abs(hi - sv) <= 1e-4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_renyi_monotone_in_alpha(seed):
    rho = random_density(6, 3, seed)
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    vals = [exact_entropies(rho, a).entropy for a in grid]
    for x, y in zip(vals, vals[1:]):
        assert y <= x + 1e-10


def test_support_projection():
    rho = from_spectrum([0.5, 0.3, 0.2], 8)
    proj = rho.project_to_support()
    assert proj.dim == 3
    assert exact_entropies(proj, 1.7).entropy == pytest.approx(
        exact_entropies(rho, 1.7).entropy, abs=1e-12
    )


def test_spectrum_cache_consistent():
    rho = random_density(8, 3, seed=1)
    spec = rho.spectrum
    rec = with_eigenvalues(spec.eigenvectors, spec.eigenvalues)
    assert op_norm_dist(HermMatrix(rec), rho.matrix) <= 1e-10


def _meta_bits(m):
    return (m.rank, m.dim, m.rho_min.hex(), m.rho_max.hex(), m.purity.hex())


def _record_bits(rec):
    return (
        type(rec.alpha),
        float(rec.alpha).hex(),
        rec.tr_pow_alpha.hex(),
        rec.entropy.hex(),
        rec.quantity,
        _meta_bits(rec.meta),
    )


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 10_000),
    orders=st.lists(
        st.one_of(st.integers(2, 6), st.floats(0.05, 6.0), st.just(1.0)), min_size=1, max_size=6
    ),
)
def test_cached_state_facts_equal_a_fresh_copy(d, data, seed, orders):
    r = data.draw(st.integers(1, d))
    rho = random_density(d, r, seed)
    for _ in range(2):  # the second round reads every value from the caches
        for a in orders:
            exact_entropies(rho, a)
        rho.meta, rho.project_to_support()
    proj = rho.project_to_support()
    for a in orders:
        fresh = random_density(d, r, seed)
        assert _record_bits(exact_entropies(rho, a)) == _record_bits(exact_entropies(fresh, a))
        fresh_proj = random_density(d, r, seed).project_to_support()
        assert _record_bits(exact_entropies(proj, a)) == _record_bits(exact_entropies(fresh_proj, a))
    fresh = random_density(d, r, seed)
    assert _meta_bits(rho.meta) == _meta_bits(fresh.meta)
    fresh_proj = fresh.project_to_support()
    assert proj.matrix.mat.tobytes() == fresh_proj.matrix.mat.tobytes()
    assert _meta_bits(proj.meta) == _meta_bits(fresh_proj.meta)


def test_state_caches_are_per_state_and_typed():
    rho = from_spectrum([0.5, 0.3, 0.2], 8)
    assert rho.meta is rho.meta
    assert exact_entropies(rho, 2.0) is exact_entropies(rho, 2.0)
    # an int order is its own entry: its record carries the int
    assert type(exact_entropies(rho, 2).alpha) is int
    assert type(exact_entropies(rho, 2.0).alpha) is float
    assert rho.project_to_support() is rho.project_to_support()
    assert rho.project_to_support().dim == 3
    full = from_spectrum([0.5, 0.5], 2)
    assert full.project_to_support() is full
    assert "support" not in full._cache
    # a copy starts with an empty cache
    assert dataclasses.replace(rho)._cache == {}
    with pytest.raises(ValueError, match="positive"):
        exact_entropies(rho, -1.0)
    with pytest.raises(ValueError, match="positive"):  # errors are not cached
        exact_entropies(rho, -1.0)


def test_nonzero_eigenvalues_are_read_only():
    rho = random_density(6, 3, seed=2)
    with pytest.raises(ValueError):
        rho.nonzero_eigenvalues[0] = 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_states_are_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        from_spectrum([bad, 1.0], 2)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(HermMatrix(np.diag([bad, 1.0]).astype(np.complex128)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 64), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_complete_qr_leads_with_the_reduced_q_bit_for_bit(d, data, seed):
    # `random_density` takes its support basis from the first r columns of a
    # complete QR; its states keep their bits only while those columns are
    # the reduced Q that numpy returns on its own
    r = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    full, _ = np.linalg.qr(g, mode="complete")
    reduced, _ = np.linalg.qr(g)
    assert full.shape == (d, d)
    assert np.ascontiguousarray(full[:, :r]).tobytes() == np.ascontiguousarray(reduced).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), d=st.integers(1, 64), data=st.data())
def test_random_density_caches_an_orthonormal_basis_that_rebuilds_it(seed, d, data):
    r = data.draw(st.integers(1, d))
    rho = random_density(d, r, seed)
    spec = rho.spectrum
    v = spec.eigenvectors
    assert v.shape == (d, d)
    assert np.linalg.norm(v.conj().T @ v - np.eye(d), 2) <= 1e-12
    assert np.all(spec.eigenvalues[r:] == 0.0) and np.all(np.diff(spec.eigenvalues) <= 0)
    assert np.linalg.norm(with_eigenvalues(v, spec.eigenvalues) - rho.matrix.mat, 2) <= 1e-12
