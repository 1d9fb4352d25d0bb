"""Exact arithmetic for Kloosterman sum power moments via double cosets
of even-characteristic orthogonal groups.

Every public name resolves on first use (PEP 562), so `import cosetmoments`
loads no layer, and a name loads only the module that defines it."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # defining module -> its public names
    "finite_field": (
        "FieldCtx", "default_modulus", "is_irreducible", "lambda_char", "make_field", "parse_hex",
        "to_hex", "trace",
    ),
    "kloosterman": (
        "BudgetError", "MomentSeries", "artin_schreier_sums", "carlitz_k2", "kgl_closed",
        "kgl_recursive", "kloosterman_spectrum", "kloosterman_sum", "power_moment_oracle",
        "predicted_spectrum", "range_spectrum", "twisted_sum_check",
    ),
    "ominus_groups": (
        "DoubleCosetSpec", "b_r_sum", "b_r_sum_closed", "b_r_sum_reduced", "bruhat_cell",
        "dc_cardinality", "double_coset_elements", "enumerate_q_minus", "enumerate_so2",
        "exp_sum_dc", "o_minus_order", "q_minus_order", "theta_minus", "trace_distribution",
    ),
    "coset_codes": (
        "WeightPrefix", "codeword_weight_closed", "delsarte_check", "dual_code_kernel",
        "dual_codeword", "full_weight_distribution_small", "weight_distribution_prefix",
    ),
    "moment_recursion": (
        "RecursionReport", "pless_check", "recursive_moments", "smallest_case_recursions",
        "stirling2",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # read from the defining module on every access, so a name patched there is seen here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_OWNER[name]}", __package__), name)
