"""The linearization pipeline for effective torus actions.

The pipeline moves a fixed point of sigma to the origin, conjugates the
linear part to diagonal form diag(t^{m_1}, ..., t^{m_n}), rejects the
action if the weight matrix is singular, and otherwise extracts the
conjugating automorphism beta from the t-constant part of the twisted
family

    phi(t)(z_i) = t^{-m_i} * sigma(t)(z_i).

The defining property of beta is the conjugation identity

    sigma(t) o beta = beta o tau(t),

equivalently tau(t) = beta^-1 o sigma(t) o beta.  The pipeline proves both
inverse compositions and that identity exactly rather than trusting the
construction.  Together they certify that sigma is an action, since it is
then conjugate to tau, so the action axioms are checked only when that
certificate is missing.  A report with verified=False is returned, never
silently dropped; it indicates a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .coefficients import LaurentPoly
from .endo import (PolyMap, compose, conjugate_by_linear, conjugate_by_translation,
                   invert, linear_map, linear_part, translation_map)
from .errors import AxiomsFail, FalinError, NotDiagonalizable, NotEffective
from .freealg import FreePoly
from .torus import (TorusAction, check_axioms, fixed_point, weight_decomposition)


@dataclass
class LinearizationReport:
    """Everything the pipeline establishes about one action."""

    rank: int
    effective: bool
    fixed_point: tuple                  # rational n-vector c
    base_change: list                   # rational n x n matrix P
    weights: list                       # integer n x n matrix M
    beta: Optional[PolyMap]             # scalar-coefficient automorphism
    beta_inverse: Optional[PolyMap]
    degree: Optional[int]               # the bound N = deg sigma
    verified: Optional[bool]


def build_tau(weights) -> TorusAction:
    """The diagonal linear action z_i -> t^{m_i} z_i from a weight matrix."""
    n = len(weights)
    images = []
    for i in range(n):
        coeff = LaurentPoly.monomial(n, weights[i])
        images.append(FreePoly(n, {(i + 1,): coeff}, n))
    return TorusAction(PolyMap(images))


def build_phi(action: TorusAction, weights) -> TorusAction:
    """Twist a diagonalized action by tau(t)^-1 so its linear part is the identity.

    Requires linear_part(action.map) = diag(t^{m_i}); the i-th image is
    sigma(t)(z_i) scaled by t^{-m_i}, whose coefficient at each t-monomial
    is one of the polynomials g_{i,m}(z) that the constant-part extraction
    reads off.
    """
    n = action.rank
    matrix = linear_part(action.map)
    for i in range(n):
        for j in range(n):
            expect = (LaurentPoly.monomial(n, weights[i]) if i == j
                      else LaurentPoly.zero(n))
            if matrix[i][j] != expect:
                raise NotDiagonalizable(
                    "build_phi requires the diagonalized linear part")
    images = []
    for i in range(n):
        inv_weight = LaurentPoly.monomial(n, [-w for w in weights[i]])
        images.append(action.map.images[i].scale(inv_weight))
    return TorusAction(PolyMap(images))


def extract_beta(phi: TorusAction) -> PolyMap:
    """The t-constant part of phi: beta(z_i) = g_{i,0...0}(z)."""
    images = []
    for img in phi.map.images:
        terms = {}
        for word, coeff in img.terms.items():
            value = coeff.constant_coeff()
            if value:
                terms[word] = value
        images.append(FreePoly(phi.rank, terms))
    return PolyMap(images)


def verify_conjugation(action: TorusAction, beta: PolyMap, weights) -> bool:
    """Exact check of sigma(t) o beta = beta o tau(t)."""
    tau = build_tau(weights)
    return compose(action.map, beta) == compose(beta, tau.map)


def _require_axioms(action: TorusAction) -> None:
    verdict = check_axioms(action)
    if not verdict.ok:
        raise AxiomsFail("the map does not satisfy the action axioms",
                         witness=verdict)


def linearize(action: TorusAction,
              max_degree: Optional[int] = None) -> LinearizationReport:
    """Run the whole pipeline and return a fully verified report.

    A verified report is its own proof that the input is an action.  When a
    stage fails, or the conjugation does not verify, the axioms are checked:
    a non-action raises AxiomsFail (with witness) whichever stage noticed.
    Genuine actions raise FixedPointNotFound when the point read off the
    t-constant part is not fixed (proof that the action is not effective),
    NotDiagonalizable for inputs whose linear part is not a torus
    representation, NotEffective (carrying the partial report) when the
    weight matrix is singular, and NotPolynomialInverseWithinBound if beta
    fails to invert within degree deg(sigma); genuine effective actions
    always admit the inverse within that bound, so the failure is surfaced
    loudly rather than retried.
    """
    try:
        report = _pipeline(action, max_degree)
    except FalinError:
        _require_axioms(action)
        raise
    if not report.verified:
        _require_axioms(action)
    return report


def _pipeline(action: TorusAction,
              max_degree: Optional[int]) -> LinearizationReport:
    n = action.rank
    center = fixed_point(action)  # verified: no constant part remains
    moved = conjugate_by_translation(action.map, center)
    base_change, weights = weight_decomposition(linear_part(moved), nvars=n)
    if linalg.int_det(weights) == 0:
        raise NotEffective(
            "weight matrix is singular: a subtorus acts trivially",
            report=LinearizationReport(
                rank=n, effective=False, fixed_point=tuple(center),
                base_change=base_change, weights=weights,
                beta=None, beta_inverse=None, degree=action.degree,
                verified=None))
    phi = build_phi(TorusAction(conjugate_by_linear(moved, base_change)), weights)
    beta = extract_beta(phi)
    bound = action.degree if max_degree is None else max_degree
    beta_inverse = invert(beta, bound)  # also proves both compositions are id
    # Verify against the original sparse action: with gamma folding the
    # translation and base change into beta, sigma o gamma = gamma o tau is
    # literally equivalent to the diagonalized-level conjugation identity,
    # and substituting the original images is far cheaper than substituting
    # the densified conjugate.
    gamma = compose(translation_map(n, [-x for x in center]),
                    compose(linear_map(n, linalg.inverse(base_change)), beta))
    verified = verify_conjugation(action, gamma, weights)
    return LinearizationReport(
        rank=n, effective=True, fixed_point=tuple(center),
        base_change=base_change, weights=weights,
        beta=beta, beta_inverse=beta_inverse,
        degree=bound, verified=verified)
