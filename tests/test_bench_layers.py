"""tools/bench_layers.py: every layer's cases name a child, and each child, run as
the tool runs it, returns the fields its layer compares between the two sides."""

import importlib.util
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
bench_layers = sys.modules["bench_layers"] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(bench_layers)

# the smallest input of each child: the first case that names it, except the checks at r = 1
SMALLEST = {"child_checks": ("1",)}
for _layer in bench_layers.LAYERS.values():
    for _, _child, _args in _layer.cases:
        SMALLEST.setdefault(_child, _args)


@lru_cache(maxsize=None)
def child_row(child: str) -> dict:
    """One run of the child at its smallest input through `--child`, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--child", child, *SMALLEST[child]],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_every_case_names_a_child_and_every_child_serves_a_layer():
    named = {child for layer in bench_layers.LAYERS.values() for _, child, _ in layer.cases}
    assert named == set(bench_layers.CHILDREN)


@pytest.mark.parametrize("child", sorted(bench_layers.CHILDREN))
def test_child_returns_the_fields_its_layer_compares(child):
    agree = {field for layer in bench_layers.LAYERS.values()
             if any(case[1] == child for case in layer.cases) for field in layer.agree}
    assert agree <= set(child_row(child))


def test_child_checks_counts_the_symmetric_sum_work():
    row = child_row("child_checks")
    for kind in ("tables", "direct_terms", "reduced_terms"):
        assert int(row[f"symmetric-matrix-sum-r1.{kind}"]) > 0


def test_a_pool_case_runs_on_one_core_per_worker_while_cores_last():
    allowed = len(os.sched_getaffinity(0))
    pools = [args for layer in bench_layers.LAYERS.values() for _, _, args in layer.cases
             if "--workers" in args]
    assert pools  # the startup layer's verify-all cases
    for args in pools:
        workers = int(args[args.index("--workers") + 1])
        assert len(bench_layers.child_cpus(args)) == min(workers, allowed)
    assert len(bench_layers.child_cpus(("verify-all", "--max-r", "8"))) == 1
    assert len(bench_layers.child_cpus(("verify-all", "--workers", "64"))) == allowed
