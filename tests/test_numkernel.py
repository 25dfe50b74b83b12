import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropybench import numkernel
from entropybench.blockenc import widen_for_rounding
from entropybench.numkernel import (
    HermMatrix,
    NonHermitianError,
    herm_with_spectrum,
    hermitian_eig,
    op_norm,
    op_norm_dist,
    with_eigenvalues,
)
from reference import ORTHONORMALITY_TOL, RECONSTRUCTION_TOL, mat_fun


def random_hermitian(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return HermMatrix(scale * h / max(1.0, np.linalg.norm(h, 2)))


def test_eig_diagonal_input():
    s = hermitian_eig(HermMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex)))
    assert np.allclose(s.eigenvalues, [0.5, 0.3, 0.2])
    assert np.allclose(np.abs(s.eigenvectors), np.eye(3))


def test_eig_scalar_matrix():
    s = hermitian_eig(HermMatrix(np.eye(4, dtype=complex) / 4))
    assert np.allclose(s.eigenvalues, 0.25)


def test_eig_reconstruction_dim8():
    a = random_hermitian(8, seed=123)
    s = hermitian_eig(a)
    assert np.linalg.norm(with_eigenvalues(s.eigenvectors, s.eigenvalues) - a.mat, 2) <= 1e-10
    assert np.linalg.norm(s.eigenvectors.conj().T @ s.eigenvectors - np.eye(8), 2) <= ORTHONORMALITY_TOL


def test_eig_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NonHermitianError) as exc:
        HermMatrix(m)
    assert exc.value.asymmetry == pytest.approx(1e-6)


def test_dim_cap():
    with pytest.raises(ValueError):
        HermMatrix(np.eye(65, dtype=complex))


def test_mat_fun_identity():
    a = random_hermitian(5, seed=7)
    b = mat_fun(a, lambda x: x)
    assert op_norm_dist(a, b) <= 1e-10


def test_mat_fun_diagonal_square():
    a = HermMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    b = mat_fun(a, lambda x: x**2)
    assert np.allclose(np.diag(b.mat).real, [0.25, 0.09, 0.04], atol=1e-14)


def test_mat_fun_fractional_power_matches_scalar():
    a = HermMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    b = mat_fun(a, lambda x: x**0.6)
    expect = sorted([0.5**0.6, 0.3**0.6, 0.2**0.6], reverse=True)
    assert np.allclose(sorted(np.diag(b.mat).real, reverse=True), expect, atol=1e-12)


def test_mat_fun_rejects_undefined():
    a = HermMatrix(np.diag([0.5, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        mat_fun(a, lambda x: 1.0 / x if x != 0 else float("nan"))


def test_replace_decomposes_the_new_matrix():
    # the cached spectrum is not an init field, so a copy does not share it
    h = HermMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(h.spectrum.eigenvalues, [1.0, 0.0])
    moved = dataclasses.replace(h, mat=np.diag([0.3, 0.2]).astype(complex))
    assert np.allclose(moved.spectrum.eigenvalues, [0.3, 0.2])
    with pytest.raises(TypeError):
        HermMatrix(h.mat, {"spec": "junk"})


def test_op_norm_dist_examples():
    a = HermMatrix(np.diag([1.0, 0.0]).astype(complex))
    b = HermMatrix(np.zeros((2, 2), dtype=complex))
    assert op_norm_dist(a, a) == 0.0
    assert op_norm_dist(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="mismatch"):
        op_norm_dist(a, HermMatrix(np.eye(3, dtype=complex)))


def test_op_norm_dist_agrees_with_spectral_oracle():
    a = random_hermitian(8, seed=11)
    b = random_hermitian(8, seed=12)
    diff = hermitian_eig(HermMatrix(a.mat - b.mat))
    assert op_norm_dist(a, b) == pytest.approx(np.max(np.abs(diff.eigenvalues)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 12))
def test_reconstruction_property(seed, d):
    a = random_hermitian(d, seed)
    assert op_norm(a) <= 1 + 1e-12
    s = hermitian_eig(a)
    assert np.linalg.norm(with_eigenvalues(s.eigenvectors, s.eigenvalues) - a.mat, 2) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 64), levels=st.integers(1, 4))
def test_eig_property_repeated_eigenvalues(seed, d, levels):
    # eigenvalues drawn from a few levels, so most spectra repeat some
    rng = np.random.default_rng(seed)
    w = rng.choice(rng.uniform(-1.0, 1.0, levels), size=d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a = HermMatrix((q * w) @ q.conj().T)
    s = hermitian_eig(a)
    assert np.all(np.diff(s.eigenvalues) <= 0.0)
    assert np.allclose(s.eigenvalues, np.sort(w)[::-1], atol=1e-12)
    assert np.linalg.norm(with_eigenvalues(s.eigenvectors, s.eigenvalues) - a.mat, 2) <= RECONSTRUCTION_TOL
    assert np.linalg.norm(s.eigenvectors.conj().T @ s.eigenvectors - np.eye(d), 2) <= ORTHONORMALITY_TOL
    assert not s.eigenvalues.flags.writeable and not s.eigenvectors.flags.writeable


def test_spectrum_decomposed_once_and_never_when_known(monkeypatch):
    calls = []
    counted = numkernel.hermitian_eig
    monkeypatch.setattr(numkernel, "hermitian_eig", lambda a: calls.append(a) or counted(a))
    a = random_hermitian(6, seed=3)
    assert a.spectrum is a.spectrum
    assert len(calls) == 1
    w = np.array([0.2, 0.7, 0.1])
    b = herm_with_spectrum(np.diag(w).astype(complex), w, np.eye(3, dtype=complex))
    assert np.array_equal(b.spectrum.eigenvalues, [0.7, 0.2, 0.1])
    assert len(calls) == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mat_fun_composition(seed):
    a = random_hermitian(6, seed)
    f = lambda x: 2 * x**2 - 1
    g = lambda x: x**3 + 0.5 * x
    assert op_norm_dist(mat_fun(a, lambda x: f(g(x))), mat_fun(mat_fun(a, g), f)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_op_norm_dist_metric(seed):
    a = random_hermitian(5, seed)
    b = random_hermitian(5, seed + 1)
    c = random_hermitian(5, seed + 2)
    assert op_norm_dist(a, b) == pytest.approx(op_norm_dist(b, a), abs=1e-12)
    assert op_norm_dist(a, c) <= op_norm_dist(a, b) + op_norm_dist(b, c) + 1e-12


# A run stacks its trials' matrices and decomposes, multiplies and reduces
# them in single numpy calls; its output is bit-identical to a trial-by-trial
# run only while each stacked kernel gives every matrix the bits a call on it
# alone gives.  numpy does not promise that, so it is checked here on the
# installed numpy, for every stacked kernel the package uses.
def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("d", [2, 8, 32, 64])
def test_stacked_kernels_equal_per_matrix_calls(d):
    rng = np.random.default_rng(d)
    n = 5
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    stack = HermMatrix((g + numkernel.adjoint(g)) / 2)
    other = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = random_hermitian(d, seed=d).mat
    spec = hermitian_eig(stack)
    eigvals = np.linalg.eigvalsh(stack.mat)
    rebuilt = numkernel.with_eigenvalues(spec.eigenvectors, spec.eigenvalues)
    product = stack.mat @ other
    sandwich = stack.mat @ rho @ stack.mat
    traces = np.trace(sandwich, axis1=-2, axis2=-1)
    overlaps = np.trace(stack.mat @ rho, axis1=-2, axis2=-1)
    norms = numkernel.frobenius(stack.mat)
    for i in range(n):
        one = HermMatrix(stack.mat[i])
        alone = hermitian_eig(one)  # eigh, then the stable descending reorder
        assert _bits(alone.eigenvalues) == _bits(spec.eigenvalues[i])
        assert _bits(alone.eigenvectors) == _bits(spec.eigenvectors[i])
        assert _bits(np.linalg.eigvalsh(one.mat)) == _bits(eigvals[i])
        v, w = alone.eigenvectors, alone.eigenvalues
        assert _bits((v * w) @ v.conj().T) == _bits(rebuilt[i])
        assert _bits(one.mat @ other[i]) == _bits(product[i])
        assert _bits(one.mat @ rho @ one.mat) == _bits(sandwich[i])
        assert _bits(np.trace(one.mat @ rho @ one.mat)) == _bits(traces[i])
        assert _bits(np.trace(one.mat @ rho)) == _bits(overlaps[i])
        assert _bits(numkernel.frobenius(one.mat)) == _bits(norms[i])
        assert _bits(numkernel.frobenius(stack.mat[i : i + 1])) == _bits(norms[i])


def test_stack_functions_take_one_matrix_or_a_stack():
    a, b = random_hermitian(4, seed=1), random_hermitian(4, seed=2)
    stack = HermMatrix(np.stack([a.mat, b.mat]))
    assert stack.dim == 4
    np.testing.assert_array_equal(op_norm(stack), [op_norm(a), op_norm(b)])
    np.testing.assert_array_equal(op_norm_dist(stack, a), [0.0, op_norm_dist(b, a)])
    assert isinstance(op_norm(a), float) and isinstance(numkernel.frobenius(a.mat), float)
    with pytest.raises(ValueError, match="square matrix or a stack"):
        HermMatrix(np.zeros((2, 2, 3, 3), dtype=complex))


def test_fail_first_raises_the_first_failing_trial():
    with pytest.raises(ValueError, match="trial 2") as info:
        numkernel.fail_first(np.array([False, False, True, True]), lambda i: ValueError(f"trial {i}"))
    numkernel.fail_first(np.array([False, False]), lambda i: ValueError(f"trial {i}"))
    with pytest.raises(ValueError, match="trial 0"):
        numkernel.fail_first(np.bool_(True), lambda i: ValueError(f"trial {i}"))  # one matrix is trial 0


@pytest.mark.parametrize("stacked", [False, True])
def test_non_increasing_spectra_with_ties_come_back_unchanged_and_read_only(stacked):
    # a cached spectrum (`random_density`'s, `from_spectrum`'s) is already
    # non-increasing with tied zeros: the stable reordering must keep it as
    # it is, hand back read-only copies and leave the caller's arrays writeable
    rng = np.random.default_rng(5)
    eigs = np.array([0.5, 0.25, 0.25, 0.0, 0.0, -0.0])
    vecs = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    if stacked:
        eigs, vecs = np.stack([eigs, [0.9, 0.1, 0.0, 0.0, -0.0, -0.0]]), np.stack([vecs, vecs.conj()])
    got = numkernel._descending(eigs, vecs)
    for g, w in zip((got.eigenvalues, got.eigenvectors), (eigs, vecs)):
        assert g.tobytes() == w.tobytes()
        assert not g.flags.writeable and w.flags.writeable and not np.shares_memory(g, w)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 64), n=st.sampled_from([None, 1, 5]), seed=st.integers(0, 2**32 - 1))
def test_op_norm_dist_is_the_spectral_norm_of_the_difference_within_rounding(d, n, seed):
    # the distance comes from `eigvalsh` alone; the oracle is the largest
    # |eigenvalue| of `hermitian_eig` of the difference.  The two may differ
    # in the last bits, never by more than the widening the ledger applies
    rng = np.random.default_rng(seed)
    shape = (d, d) if n is None else (n, d, d)
    g = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
    a, b = (HermMatrix((m + numkernel.adjoint(m)) / 2) for m in g)
    got = op_norm_dist(a, b)
    want = np.max(np.abs(hermitian_eig(HermMatrix(a.mat - b.mat)).eigenvalues), axis=-1)
    assert isinstance(got, float) == (n is None) and np.shape(got) == np.shape(want)
    assert np.all(got <= widen_for_rounding(want, d)) and np.all(want <= widen_for_rounding(got, d))
