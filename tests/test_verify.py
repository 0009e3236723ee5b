import pytest

from hypercurv.errors import DomainError
from hypercurv.verify import run_builtin_suite


def test_builtin_suite_all_green():
    results = run_builtin_suite(seed=0, scan_grid_points=120_000)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    # the suite spans invariants, ladders, Simons forms, scans and immersions
    assert len(results) >= 40
    assert len({r.name for r in results}) == len(results)


def test_suite_results_serialize():
    for result in run_builtin_suite(seed=1, scan_grid_points=60_000)[:3]:
        payload = result.to_json_dict()
        assert set(payload) == {"name", "passed", "detail"}


def test_negative_seed_refused_before_any_check():
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        run_builtin_suite(seed=-1)
