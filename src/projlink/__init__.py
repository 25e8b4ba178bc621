"""Torus-link calculus on S^3 and RP^3 with JSJ-tree combinatorics."""

from .links import (
    AmbientSpace,
    CalculusError,
    Classification,
    ClassificationKind,
    Direction,
    InvalidInput,
    InvalidN,
    NotApplicable,
    Relation,
    RelationStep,
    SpaceMismatch,
    TorusLink,
    WitnessChain,
    WrongSpace,
    applicable_relations,
    apply_relation,
    canonical,
    classify,
    component_count,
    isotopic,
    lift,
    make_link,
    normal_form,
    verify_chain,
)
from .atlas import (
    Atlas,
    VerificationReport,
    confluence_audit,
    enumerate_classes,
    relation_lift_compatibility,
    verify_lift_injectivity,
)
from .jsj import (
    CoverSpec,
    Geometry,
    JsjTree,
    RegionLabel,
    TreeEdge,
    TreeValidationError,
    lemma44_check,
    outermost,
    potential,
    quotient,
    validate_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
