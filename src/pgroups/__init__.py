"""Finite p-group arithmetic, GF(p) cohomology of derivation spaces, and
certified non-inner automorphisms of order p (p odd).

The package is organized bottom-up: exact linear algebra over GF(p)
(gflinalg), power-commutator presentations with collection (pcgroup),
subgroup series (series), module calculus (fpmod), derivation spaces and
H^1 (deriv), automorphism construction and certificates (autom), the
brute-force oracle (oracle), named builders (catalog), and the CLI (cli).
"""

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
    dump_presentation,
    enumerate_elements,
    identity_endo,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    quotient,
    subgroup_presentation,
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
    Filtration,
    FpModule,
    ModuleRealization,
    Submodule,
    annihilator_of_radical_power,
    conjugation_module,
    fixed_points,
    maximal_submodules,
    module_isomorphism,
    norm_operator,
    pullback_module,
    quotient_module,
    radical_series,
    regular_module,
    socle_filtration,
    socle_layer,
    submodule_as_module,
    submodule_closure,
    submodule_embedding_count,
    submodules_of_dim,
    trivial_module,
)
from .deriv import (
    CohomologySpace,
    Derivation,
    derivation_space,
    derivation_with_values,
    quotient_h1_dims,
    restriction_image_dim,
    theta_cr_build,
    twist_extend,
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
