"""Self-tests of the benchmark harness: python3 -m pytest -q bench/test_bench.py"""

import itertools
import sys
import tempfile

import pytest

import run
from tracer import Tracer, layer_table, reuse_frac, root_time, self_times
from workloads import WORKLOADS, Request, requests

TINY = Request(("renyi", "--alpha", "1.5", "--dim", "4", "--rank", "2", "--trials", "1", "--seed", "3"), 1)


def test_self_time_of_synthetic_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["root", 20.0, 21.0, -1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    table = layer_table(spans)
    assert table["root"] == {"calls": 2, "total_s": 11.0, "self_s": 4.0}
    assert table["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert root_time(spans) == 11.0


def test_overlapping_children_are_not_subtracted_twice():
    spans = [["p", 0.0, 10.0, -1], ["c", 1.0, 6.0, 0], ["c", 4.0, 8.0, 0], ["c", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_wrappers_nest_and_count_repeated_keys():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x

    leaf_w = tracer.wrap("leaf", leaf, key_of=lambda args, kwargs: args)

    def outer(x):
        return leaf_w(x) + leaf_w(x) + leaf_w(x + 1)

    assert tracer.wrap("outer", outer)(1) == 4
    table = layer_table(tracer.spans)
    # each span reads the clock twice: outer covers ticks 0..7, leaves 1 tick each
    assert table["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 4.0}
    assert table["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert reuse_frac(tracer.fit_keys) == pytest.approx(1 / 3)
    assert reuse_frac([]) == 0.0


@pytest.mark.parametrize(
    "n, permille",
    [(0, None), (19, None), (20, 500), (39, 500), (40, 750), (100, 900), (199, 900),
     (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999)],
)
def test_highest_percentile_with_ten_samples_beyond_it(n, permille):
    assert run.tail_permille(n) == permille


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 500) == 50
    assert run.percentile(values, 900) == 90
    assert run.percentile([7.0], 999) == 7.0


def _spawn(reqs, trace=False):
    with tempfile.TemporaryDirectory() as tmp:
        return run.spawn_pass(reqs, trace, tmp, deadline=run.time.monotonic() + 120)


def test_each_pass_starts_without_module_state_of_the_last():
    first, second = _spawn([TINY]), _spawn([TINY])
    assert first["inherited_state"] is None and second["inherited_state"] is None
    assert first["csvs"] == second["csvs"] and first["codes"] == [0]


def test_state_probe_sees_a_pass_run_in_the_same_process():
    # control for the test above: the probe does detect carried-over state
    import child

    with tempfile.TemporaryDirectory() as tmp:
        spec = {"src": str(run.SRC), "requests": [list(TINY.argv)], "trace": False,
                "tmp": tmp, "spawn_t": run.time.monotonic()}
        assert child.main(dict(spec))["inherited_state"] is None
        assert child.main(dict(spec))["inherited_state"] == spec["spawn_t"]


def test_traced_pass_wraps_every_namespace_and_keeps_output():
    plain, traced = _spawn([TINY]), _spawn([TINY], trace=True)
    assert traced["trace_missed"] == []
    assert traced["csvs"] == plain["csvs"]
    layers = traced["layers"]
    # reached as estimators.apply_poly / blockenc.op_norm_dist, not qsvtpoly.* or numkernel.*
    assert layers["qsvtpoly.apply_poly"]["calls"] == 1
    assert layers["qsvtpoly.cheb_fit"]["calls"] == 1
    assert layers["cli.main"]["calls"] == 1
    assert layers["estimators.renyi_case_odd"]["calls"] == 1
    assert layers["numkernel.hermitian_eig"]["calls"] >= 1


def test_blas_pinned_in_pass_process():
    result = _spawn([])
    assert result["blas_threads"] in (1, None)
    assert result["python"] == sys.version.split()[0]


def test_solve_ref_divides_each_request_by_its_bracketing_references():
    result = {"request_s": [1.0, 2.0], "refs": [0.5, 1.5, 0.5]}
    assert run.solve_ref(result) == pytest.approx(1.0 / 1.0 + 2.0 / 1.0)
    assert run.wall_s(result) == 3.0


def test_requests_depend_on_the_seed_only():
    for workload in WORKLOADS:
        assert requests(workload, 5) == requests(workload, 5)
        assert requests(workload, 5) != requests(workload, 6)
    for req in requests("vn-d8", 5):
        assert abs(sum(req.spectrum) - 1.0) <= 1e-12 and min(req.spectrum) >= 0.15
