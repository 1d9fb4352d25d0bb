"""The package namespace: every public name resolves lazily, and the commands
that need only the field and the sums load nothing else."""

import subprocess
import sys
from importlib import import_module

import pytest

import cosetmoments
from cosetmoments import kloosterman

PUBLIC = """
    BudgetError DoubleCosetSpec FieldCtx MomentSeries RecursionReport WeightPrefix
    artin_schreier_sums b_r_sum b_r_sum_closed b_r_sum_reduced bruhat_cell carlitz_k2
    codeword_weight_closed dc_cardinality default_modulus delsarte_check double_coset_elements
    dual_code_kernel dual_codeword enumerate_q_minus enumerate_so2 exp_sum_dc
    full_weight_distribution_small is_irreducible kgl_closed kgl_recursive kloosterman_spectrum
    kloosterman_sum lambda_char make_field o_minus_order parse_hex
    pless_check power_moment_oracle predicted_spectrum q_minus_order range_spectrum
    recursive_moments smallest_case_recursions stirling2 theta_minus to_hex trace
    trace_distribution twisted_sum_check weight_distribution_prefix
""".split()

LAZY_LAYERS = ("checks", "double_cosets", "ominus_groups", "coset_codes", "moment_recursion")


def _fresh(probe: str) -> str:
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_keeps_the_public_names_sorted():
    assert cosetmoments.__all__ == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_the_defining_modules_object(name):
    obj = getattr(cosetmoments, name)
    assert getattr(import_module(obj.__module__), name) is obj
    assert obj.__module__.split(".")[:1] == ["cosetmoments"]


def test_a_name_patched_in_its_module_is_seen_through_the_package(monkeypatch):
    marker = object()
    monkeypatch.setattr(kloosterman, "kloosterman_sum", marker)
    assert cosetmoments.kloosterman_sum is marker


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from cosetmoments import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == cosetmoments.__all__
    assert all(namespace[name] is getattr(cosetmoments, name) for name in namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cosetmoments.no_such_name  # noqa: B018
    assert not hasattr(cosetmoments, "closed_weights")  # public in coset_codes, not here


def test_from_import_still_loads_submodules():
    out = _fresh(
        "from cosetmoments import cli, coset_codes\n"
        "print(type(cli).__name__, type(coset_codes).__name__, cli.__name__, coset_codes.__name__)\n"
    )
    assert out.split() == ["module", "module", "cosetmoments.cli", "cosetmoments.coset_codes"]


def test_help_field_and_kloos_load_no_group_code_or_recursion_layer():
    out = _fresh(
        "import contextlib, io, json, sys\n"
        "import cosetmoments\n"
        "import cosetmoments.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    codes = [cli.main(['field', '--r', '3']),\n"
        "             cli.main(['kloos', '--r', '3', '--a', '0x2', '--hmax', '2'])]\n"
        f"loaded = [m for m in {LAZY_LAYERS!r} if 'cosetmoments.' + m in sys.modules]\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink):\n"
        "    codes.append(cli.main(['moments', '--r', '2', '--family', '1', '--sign', 'minus',\n"
        "                           '--n', '1', '--hmax', '4', '--verify']))\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded,\n"
        "                  'agree': [row['agree'] for row in json.loads(sink.getvalue())['result']\n"
        "                            ['reports'][0]['h']]}))\n"
    )
    assert out.strip() == (
        '{"codes": [0, 0, 0], "loaded": [], "agree": [true, true, true, true, true]}'
    )


def test_moments_loads_the_closed_forms_but_no_enumeration_and_no_check():
    out = _fresh(
        "import contextlib, io, sys\n"
        "import cosetmoments.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['moments', '--r', '3', '--family', '2', '--sign', 'plus', '--n', '2',\n"
        "                     '--hmax', '4', '--verify'])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('cosetmoments.')))\n"
    )
    layers = ("cli", "coset_codes", "double_cosets", "finite_field", "kloosterman", "moment_recursion",
              "spec_commands")
    assert out.split() == ["0", *(f"cosetmoments.{name}" for name in layers)]


def test_a_closed_form_loads_no_enumeration():
    out = _fresh(
        "import sys\n"
        "import cosetmoments\n"
        "spec = cosetmoments.DoubleCosetSpec(1, '+', 2, cosetmoments.make_field(3))\n"
        "print(cosetmoments.dc_cardinality(spec)[2], 'cosetmoments.ominus_groups' in sys.modules)\n"
    )
    size = import_module("cosetmoments.double_cosets").bruhat_cell_order(8, 2, 1)
    assert out.split() == [str(size), "False"]
