"""Erasure codes with availability: constructions, verification, bounds.

The package builds strict-availability parity-check matrices, checks the
defining regularity properties, computes exact brute-force invariants
(minimum distance, dual support weights), and evaluates every implemented
rate / distance / dimension bound in exact rational arithmetic, including
a weight-distribution linear program with an exact simplex solver.

`import availcodes` is lazy: it loads no layer.  Each exported name is
read from its defining module when it is accessed (PEP 562), so
`availcodes.lp_dimension_bound` loads only `lp` and the layers `lp`
imports.  The figure ids and the LP row budget live here, not in
`figures`, because the CLI's argument parser needs them before it knows
which layer a command uses.
"""

import importlib

__version__ = "0.1.0"

FIGURE_IDS = ("rate3", "rate4", "dmin3", "dmin3_mdelta", "lp3")
# the largest r whose lp3 row, n = (r+1)^2, is within the LP's LP_SIZE_LIMIT
# of 800; that row takes about 0.05 s, nearly all of it in the LP, and
# dim_huang under 1 ms of it (2-vCPU VM)
LP_DEFAULT_BUDGET = 27


class _Record:
    """Equality and repr over the public `__slots__` of a record's class
    and bases; a slot named with a leading underscore is a cache, not a
    field."""

    __slots__ = ()

    def _fields(self) -> dict:
        return {
            name: getattr(self, name)
            for cls in reversed(type(self).__mro__)
            for name in getattr(cls, "__slots__", ())
            if not name.startswith("_")
        }

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({fields})"


_EXPORTS = {
    "bitmatrix": (
        "BitMatrix",
        "MatrixFormatError",
        "parse_matrix",
        "rank",
        "rank_and_nullspace",
        "row_space_basis",
        "serialize_matrix",
    ),
    "bounds": (
        "BoundNotApplicableError",
        "BoundResult",
        "dim_huang",
        "dmin_m_delta",
        "dmin_m_delta_max",
        "dmin_shortening",
        "dmin_tamo_barg",
        "dmin_wang",
        "ghw_profile_m_delta",
        "ghw_profile_simple",
        "k_opt_griesmer",
        "rate_best_known",
        "rate_greedy_t3",
        "rate_tamo_barg",
        "rate_transpose",
        "rate_transpose_step",
        "rate_wzl_achievable",
    ),
    "codes": ("AvailabilityCode",),
    "constructions": (
        "PartitionFamily",
        "build_partition_family",
        "functional_code",
        "generate_mols",
        "partition_code",
        "product_code",
        "projective_functionals",
    ),
    "fields": ("FiniteField", "matrix_rank", "prime_power"),
    "figures": ("emit_figure_data",),
    "lp": (
        "InfeasibleRelaxationError",
        "LPBoundResult",
        "LPModel",
        "LPSizeError",
        "LPSolution",
        "build_lp",
        "lp_dimension_bound",
        "point_violations",
    ),
    "verification": (
        "AvailabilityCheckReport",
        "GreedyTrace",
        "StrictCheckReport",
        "check_availability",
        "check_strict_availability",
        "dual_ghw_bruteforce",
        "greedy_cover",
        "min_distance_bruteforce",
    ),
    "weights": (
        "EnumerationBudgetError",
        "krawtchouk_column",
        "krawtchouk_row",
        "macwilliams_vector",
        "weight_distribution",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
