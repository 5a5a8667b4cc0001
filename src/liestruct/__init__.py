"""Exact structure theory of finite-dimensional Lie algebras: chief series,
chief-factor classification, crowns, prefrattini subalgebras and primitivity,
over the rationals and small prime fields, with a brute-force enumeration
oracle for ground truth."""

from .fields import GF, QQ, Field, FieldError, PrimeField, Rationals
from .linalg import Matrix, QuotientMap, Subspace, rref_solve
from .algebra import (
    AlgebraError,
    IdealFlag,
    ideal_flags,
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    NilpotentAutomorphism,
    bracket_spaces,
    brackets_inside,
    center,
    centralizer,
    characteristic_series,
    core,
    derived_series,
    direct_sum,
    factor_centralizer,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    lower_central_series,
    nilpotent_automorphism,
    quotient_algebra,
    semidirect_sum,
    validate_algebra,
)
from .modules import (
    FactorModule,
    LModule,
    ModuleMap,
    SocleInfo,
    SplittingCertificate,
    adjoint_module,
    certify_irreducible,
    factor_module,
    hom_space,
    module_isomorphism,
    socle_and_minimal_ideals,
    spin,
    split_abelian_extension,
)
from .status import CERTIFIED, CertificationFailure, Status, heuristic, undecided, worst
from .chief import (
    ChiefFactor,
    IsoClass,
    iso_classes,
    ChiefMatch,
    ChiefSeries,
    MatchFailure,
    chief_series,
    chief_series_variants,
    classify_factor,
    connected,
    jordan_holder_match,
    module_isomorphic,
    solvable_radical,
)
from .crowns import (
    Crown,
    Precrown,
    PrecrownFamily,
    all_crowns,
    complement_conjugator,
    cover_avoid_profile,
    crown_complement,
    crown_of_factor,
    denominator_intersection,
    precrowns_of_factor,
    prefrattini,
)
from .primitive import (
    MaximalTypeReport,
    PrimitiveWitness,
    associated_primitive_algebra,
    classify_primitive,
    core_free_conjugator,
    maximal_type,
    type_equivalence_witnesses,
)
from .oracle import (
    BudgetExceeded,
    EnumBudget,
    enum_structures,
    frattini_objects,
    gaussian_binomial,
    minimal_ideals_bf,
    oracle_check,
    prefrattini_bf,
    primitive_bf,
)
from .corpus import FixtureFact, ParseError, builtin, facts_for, load, save

__version__ = "0.1.0"
