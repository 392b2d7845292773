"""Linear pfaffian representations of plane curves.

Construct, transform and verify skew-symmetric linear matrix pencils
whose pfaffian cuts out a plane curve: canonical forms, elementary
transformations of the cokernel bundle, and the plane-quartic pipeline
from the Scorza covariant to theta-characteristic identification.

The public names below are resolved on first access (PEP 562), so
``import pfaffrep`` or ``import pfaffrep.cli`` loads no submodule that
the caller does not use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bridge": ("BridgeResult", "bridge_to_decomposable"),
    "canonical": ("CanonicalReport", "StructureReport", "gauge_action",
                  "off_pattern_norm", "second_canonical_transform", "structure_report",
                  "to_canonical", "to_second_canonical", "validate_canonical",
                  "validate_second_canonical"),
    "errors": ("CorankNotOne", "DegenerateDenominator", "DegenerateHessian",
               "InconsistentPolarData", "MultipleMatches", "NoAdmissiblePartner",
               "NoMatch", "NotAProductOfLines", "NotAdmissible", "NotInCanonicalForm",
               "NotOnBaseLocus", "NotUnimodular", "NumericalError", "PfaffrepError",
               "PreconditionError", "RankDeficiency", "RepeatedRoots", "SamePoint",
               "SampleOnExceptionalLine", "SchemaError", "SingularGamma",
               "SingularTransform", "SkewSymmetryViolation", "SpanFailure",
               "TangencyCheckFailed", "VectorNotInKernel"),
    "incidence": ("CurvePoint", "PairClassification", "classify_pair", "curve_point",
                  "k_constant", "line_through", "partner_points", "sample_curve_points",
                  "tangent_line"),
    "pencil": ("DetRep", "KernelBasis", "SkewPencil", "congruence", "decomposable_from",
               "kernel_at", "pfaffian_adjoint_at", "pfaffian_minor", "pfaffian_numeric",
               "wedge_to_matrix"),
    "poly": ("HomPoly", "LinearForm", "ProjPoint", "equal_up_to_scale", "roots_on_line",
             "univariate_roots"),
    "quartic": ("CubicCoeffs", "PolarTriangle", "ScorzaRelation", "SymDetRep",
                "ThetaIdentification", "aronhold_invariant", "aronhold_matrix",
                "bitangent_from_octad", "corank_one_kernel", "factor_three_lines",
                "hessian_det", "identify_theta", "integrate_polar", "polar_cubic",
                "polar_cubic_at", "polar_triangle", "scorza_map", "scorza_related"),
    "tolerances": ("DEFAULT_POLICY", "TolerancePolicy"),
    "transforms": ("BundleCheckReport", "TransformRecord", "apply_record",
                   "bundle_maps_check", "conint", "conint_rho_for_type2", "inverse_step",
                   "type1", "type2", "verify_replay"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in the package namespace: every access reads the defining
    # module, so a name rebound there is seen here too.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
