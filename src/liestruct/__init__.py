"""Exact structure theory of finite-dimensional Lie algebras: chief series,
chief-factor classification, crowns, prefrattini subalgebras and primitivity,
over the rationals and small prime fields, with a brute-force enumeration
oracle for ground truth.

``import liestruct`` loads the algebra layer only: ``fields``, ``linalg``,
``algebra``, ``status`` and ``corpus``, enough to build, load, save and
validate algebras, and imports neither ``typing``, ``inspect`` nor
``dataclasses``.  The analysis layer (``modules``, ``polys``, ``chief``,
``crowns``, ``primitive`` and ``oracle``) is about half of the package's
source; it loads on the first access to one of its exports as an attribute
of this package, through the module ``__getattr__`` (PEP 562), or on
``dir(liestruct)`` and ``from liestruct import *``.  An analysis module
named as an attribute, such as ``liestruct.chief``, is imported on its own.
Importing one of its modules, or ``liestruct.cli``, loads it as usual:
``cli`` keeps its imports at the top, so a caller that imports it before
timing a report does not pay for compiling that layer inside the report.
"""

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
    nilpotent_residual,
    quotient_algebra,
    semidirect_sum,
    validate_algebra,
)
from .status import CERTIFIED, CertificationFailure, Status, heuristic, undecided, worst
from .corpus import FixtureFact, ParseError, builtin, facts_for, load, save

__version__ = "0.1.0"

# The analysis layer's modules.  ``__getattr__`` imports just the one named,
# so ``from . import modules`` inside a half-imported analysis module does
# not start a load of the whole layer that would import that module again.
_ANALYSIS_MODULES = frozenset({"modules", "polys", "chief", "crowns", "primitive", "oracle"})


def _load_analysis_layer() -> None:
    """Bind the analysis layer's exports into this namespace.  Each call runs
    the imports again: ``sys.modules`` makes a repeat cheap, the import locks
    make a second thread wait for a load in progress, and a load that failed
    part way raises its error again instead of leaving names unbound."""
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
    globals().update(locals())


def __getattr__(name: str):
    if name in _ANALYSIS_MODULES:
        __import__(f"{__name__}.{name}")
    else:
        _load_analysis_layer()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _load_analysis_layer()
    return list(globals())
