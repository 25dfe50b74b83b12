import entropybench

# The package's public names: what a pipeline calls, and the types it
# returns.  Test-only references live in `tests/reference.py`.
PUBLIC = [
    "Budget",
    "RegimeDecomposition",
    "decompose_alpha",
    "delta_budget",
    "predicted_samples",
    "BlockEncoding",
    "be_power",
    "be_product",
    "encode_density",
    "rescale",
    "TOL",
    "EstimateReport",
    "EstimationFailure",
    "Plan",
    "estimate",
    "measure_p0",
    "min_eig_estimate",
    "plan",
    "run",
    "HermMatrix",
    "Spectrum",
    "hermitian_eig",
    "op_norm",
    "op_norm_dist",
    "PolyApprox",
    "apply_poly",
    "approx_log",
    "approx_neg_power",
    "approx_pos_power",
    "cheb_fit",
    "to_monomial",
    "DensityMatrix",
    "StateMeta",
    "exact_entropies",
    "from_spectrum",
    "random_density",
]


def test_public_names_are_pinned_and_resolve():
    assert entropybench.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(entropybench, name) is not None, name
