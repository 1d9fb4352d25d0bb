"""bench/spans.py rebinds package functions by name, skips a name it cannot find and
reads `cache_info()` and argument positions: each name and shape it reads must stay,
or the traced counters read zero with no error. The module is read, never imported
from bench/, so no file there is written."""

import inspect
import types
from pathlib import Path

from cosetmoments import cli, coset_codes, kloosterman, moment_recursion, ominus_groups

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
spans = types.ModuleType("spans")
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(spans))


def test_the_counted_enumerations_and_direct_sum_are_caches():
    cached = [getattr(ominus_groups, name) for name in spans.ENUMERATIONS]
    for func in cached + [kloosterman.kloosterman_sum]:
        assert callable(func.cache_info), func.__name__


def test_the_wrapped_functions_exist():
    for module, name in ((ominus_groups, "b_r_sum"), (cli, "_run_check"), (cli, "main")):
        assert callable(getattr(module, name, None)), name
    assert spans.ROOT == "cli.main"


def test_the_counted_arguments_keep_their_positions():
    def parameters(func):
        return list(inspect.signature(func).parameters)

    assert parameters(coset_codes.prefix_counts_from_distribution)[2] == "j_max"
    assert parameters(moment_recursion._solve_recursion)[5] == "h_max"
