"""Linear pfaffian representations of plane curves.

Construct, transform and verify skew-symmetric linear matrix pencils
whose pfaffian cuts out a plane curve: canonical forms, elementary
transformations of the cokernel bundle, and the plane-quartic pipeline
from the Scorza covariant to theta-characteristic identification.
"""

from .bridge import BridgeResult, bridge_to_decomposable
from .canonical import (CanonicalReport, StructureReport, gauge_action,
                        off_pattern_norm, second_canonical_transform,
                        structure_report, to_canonical, to_second_canonical,
                        validate_canonical, validate_second_canonical)
from .errors import (CorankNotOne, DegenerateDenominator, DegenerateHessian,
                     InconsistentPolarData, MultipleMatches, NoAdmissiblePartner,
                     NoMatch, NotAProductOfLines, NotAdmissible, NotInCanonicalForm,
                     NotOnBaseLocus, NotUnimodular, NumericalError, PfaffrepError,
                     PreconditionError,
                     RankDeficiency, RepeatedRoots, SamePoint, SampleOnExceptionalLine,
                     SchemaError, SingularGamma, SingularTransform,
                     SkewSymmetryViolation, SpanFailure, TangencyCheckFailed,
                     VectorNotInKernel)
from .incidence import (CurvePoint, PairClassification, classify_pair, curve_point,
                        k_constant, line_through, partner_points,
                        sample_curve_points, tangent_line)
from .pencil import (DetRep, KernelBasis, SkewPencil, congruence, decomposable_from,
                     kernel_at, pfaffian_adjoint_at, pfaffian_minor, pfaffian_numeric,
                     wedge_to_matrix)
from .poly import (HomPoly, LinearForm, ProjPoint, equal_up_to_scale, eval_poly,
                   roots_on_line, univariate_roots)
from .quartic import (CubicCoeffs, PolarTriangle, ScorzaRelation, SymDetRep,
                      ThetaIdentification, aronhold_invariant, aronhold_matrix,
                      bitangent_from_octad, corank_one_kernel, factor_three_lines,
                      hessian_det, identify_theta, integrate_polar, polar_cubic,
                      polar_cubic_at, polar_triangle, scorza_map, scorza_related)
from .tolerances import DEFAULT_POLICY, TolerancePolicy
from .transforms import (BundleCheckReport, TransformRecord, apply_record,
                         bundle_maps_check, conint, conint_rho_for_type2,
                         inverse_step, type1, type2, verify_replay)

__version__ = "0.1.0"
