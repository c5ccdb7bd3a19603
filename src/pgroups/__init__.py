"""Finite p-group arithmetic, GF(p) cohomology of derivation spaces, and
certified non-inner automorphisms of order p (p odd).

The package is organized bottom-up: exact linear algebra over GF(p)
(gflinalg), power-commutator presentations with collection (pcgroup),
subgroup series (series), module calculus (fpmod), derivation spaces and
H^1 (deriv), automorphism construction and certificates (autom), the
brute-force oracle (oracle), named builders (catalog), and the CLI (cli).

Two modules load on first use: the submodule-lattice and theta-tower
toolkit (lattice), which no command runs, and quotient and subgroup
presentations with the presentation file format (presentations), which
only `file:` specs and `--file` reach. Their names still resolve here, as
`pgroups.<name>` and through `from pgroups import *`.
"""

from importlib import import_module as _import_module

from .errors import (
    CapExceeded,
    Caps,
    DEFAULT_CAPS,
    InputError,
    OutOfScope,
    PGroupError,
    VerificationFailed,
)
from .pcgroup import (
    Element,
    GroupHom,
    PcPresentation,
    build_D,
    collect,
    direct_product,
    enumerate_elements,
    identity_endo,
)
from .series import (
    HypothesisReport,
    Subgroup,
    SubgroupChain,
    agemo,
    center,
    centralizer,
    frattini,
    frattini_via_maximals,
    gamma3_agemo,
    hypothesis_report,
    lower_central,
    make_subgroup,
    min_generators,
    normal_closure,
    omega1,
    refine_chain,
    subgroup_center,
    subgroup_generated,
    trivial_subgroup,
    upper_central,
    whole_group,
)
from .fpmod import (
    FpModule,
    ModuleRealization,
    Submodule,
    conjugation_module,
    pullback_module,
    quotient_module,
    regular_module,
    submodule_as_module,
    trivial_module,
)
from .deriv import (
    CohomologySpace,
    Derivation,
    derivation_space,
    vanishing_subspace,
)
from .autom import (
    NonInnerCertificate,
    PipelineReport,
    construct_noninner,
    induce,
    is_inner,
    order_of,
    verify_certificate,
)
from .oracle import (
    AutEnumeration,
    enumerate_automorphisms,
    enumerate_derivations_bruteforce,
    find_isomorphism,
    find_noninner_order_p,
    verify_conjecture,
)
from .catalog import (
    cyclic,
    default_catalog,
    elementary_abelian,
    heisenberg,
    modular_p3,
    parse_group_spec,
    wreath_cyclic,
)

__version__ = "0.1.0"

# The names of the two modules that load on first use, resolved by
# __getattr__ (PEP 562) and then bound here.
_LAZY = {
    **dict.fromkeys((
        "Filtration", "annihilator_of_radical_power", "fixed_points",
        "maximal_submodules", "module_isomorphism", "norm_operator", "radical_series",
        "socle_filtration", "socle_layer", "submodule_closure",
        "submodule_embedding_count", "submodules_of_dim", "derivation_with_values",
        "quotient_h1_dims", "restriction_image_dim", "theta_cr_build", "twist_extend",
    ), "lattice"),
    **dict.fromkeys((
        "dump_presentation", "load_presentation", "presentation_from_dict",
        "presentation_to_dict", "quotient", "subgroup_presentation",
    ), "presentations"),
}

# What `from pgroups import *` binds: the public names of the eager
# modules above, the modules themselves, and the names in _LAZY.
__all__ = [
    "AutEnumeration", "CapExceeded", "Caps", "CohomologySpace", "DEFAULT_CAPS",
    "Derivation", "Element", "Filtration", "FpModule", "GroupHom", "HypothesisReport",
    "InputError", "ModuleRealization", "NonInnerCertificate", "OutOfScope",
    "PGroupError", "PcPresentation", "PipelineReport", "Subgroup", "SubgroupChain",
    "Submodule", "VerificationFailed", "agemo", "annihilator_of_radical_power", "autom",
    "build_D", "catalog", "center", "centralizer", "collect", "conjugation_module",
    "construct_noninner", "cyclic", "default_catalog", "deriv", "derivation_space",
    "derivation_with_values", "direct_product", "dump_presentation",
    "elementary_abelian", "enumerate_automorphisms", "enumerate_derivations_bruteforce",
    "enumerate_elements", "errors", "find_isomorphism", "find_noninner_order_p",
    "fixed_points", "fpmod", "frattini", "frattini_via_maximals", "gamma3_agemo",
    "gflinalg", "heisenberg", "hypothesis_report", "identity_endo", "induce",
    "is_inner", "load_presentation", "lower_central", "make_subgroup",
    "maximal_submodules", "min_generators", "modular_p3", "module_isomorphism",
    "norm_operator", "normal_closure", "omega1", "oracle", "order_of",
    "parse_group_spec", "pcgroup", "presentation_from_dict", "presentation_to_dict",
    "pullback_module", "quotient", "quotient_h1_dims", "quotient_module",
    "radical_series", "refine_chain", "regular_module", "restriction_image_dim",
    "series", "socle_filtration", "socle_layer", "subgroup_center",
    "subgroup_generated", "subgroup_presentation", "submodule_as_module",
    "submodule_closure", "submodule_embedding_count", "submodules_of_dim",
    "theta_cr_build", "trivial_module", "trivial_subgroup", "twist_extend",
    "upper_central", "vanishing_subspace", "verify_certificate", "verify_conjecture",
    "whole_group", "wreath_cyclic",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
