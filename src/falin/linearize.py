"""The linearization pipeline for effective torus actions.

The pipeline moves a fixed point of sigma to the origin, finds the base
change P with P^-1 A(t) P = diag(t^{m_1}, ..., t^{m_n}) for the linear
part A, rejects the action if the weight matrix is singular, and otherwise
reads the conjugating automorphism beta off the weight components of
sigma: beta(z_i) is the t^{m_i} part of the i-th image of the diagonalized
action, and since the base change does not touch t, that part is taken
before it.  beta^-1 is read off the same components, from the
lowest-degree part of each (see linearize), with the same P^-1.

The defining property of beta is the conjugation identity

    sigma(t) o beta = beta o tau(t),

equivalently tau(t) = beta^-1 o sigma(t) o beta.  The pipeline proves both
inverse compositions and that identity exactly rather than trusting the
construction.  With gamma = T_-c o P^-1 o beta, the identity is checked as
sigma(t) = gamma o tau(t) o gamma^-1 one t-part at a time over scalar
images, gamma^-1 built from the proven beta^-1, so no Laurent coefficient
is multiplied.  Together they certify that sigma is an action, since it is
then conjugate to tau, so the action axioms are checked only when that
certificate is missing.  A report with verified=False is returned, never
silently dropped; it indicates a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .coefficients import LaurentPoly
from .endo import (PolyMap, compose, conjugate_by_translation, identity_map,
                   linear_combinations, linear_map, linear_part,
                   substitute_parts, translation_map)
from .errors import (AxiomsFail, FalinError, NotEffective,
                     NotPolynomialInverseWithinBound)
from .freealg import FreePoly, t_components
from .torus import (TorusAction, check_axioms, fixed_point, is_effective,
                    weight_decomposition)


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


def extract_beta(action: TorusAction, base_change, weights) -> PolyMap:
    """The conjugator beta, read off the weight components of sigma.

    Write sigma(t)(z_j) = sum_m t^m g_{j,m}(z), with the fixed point moved
    to the origin and P^-1 A(t) P = diag(t^{m_i}) for the linear part A.
    beta(z_i) is the t^{m_i} part of the i-th image of the diagonalized
    action P^-1 sigma(t)(P z); conjugating by the scalar matrix P does not
    touch t, so taking a t-coefficient commutes with it, and
    beta(z_i) = Y_i(P z) with Y_i = sum_j (P^-1)_{ij} g_{j,m_i}.
    """
    return _conjugator(action.map, base_change, weights)[0]


def _conjugator(moved: PolyMap, base_change, weights):
    """(beta, Y, P^-1, components) for sigma(t) = ``moved`` (see extract_beta).

    components[j] is {m: g_{j,m}}; P^-1 and the components are returned so
    that the pipeline reads beta^-1 off them without forming them again.
    """
    n = moved.rank
    inverse = linalg.inverse(base_change)
    components = [t_components(img) for img in moved.images]
    zero = FreePoly.zero(n)
    y = PolyMap([
        linear_combinations([row], PolyMap(
            [parts.get(tuple(m), zero) for parts in components]))[0]
        for row, m in zip(inverse, weights)])
    return compose(linear_map(n, base_change), y), y, inverse, components


def _lowest_parts(components, n: int) -> PolyMap:
    """H with H_j = sum_mu low(g_{j,mu}), low keeping the shortest words."""
    images = []
    for parts in components:
        total = {}
        for g in parts.values():
            low = min(map(len, g.terms))
            for word, c in g.terms.items():
                if len(word) == low:
                    total[word] = total.get(word, 0) + c
        images.append(FreePoly(n, total))
    return PolyMap(images)


def verify_conjugation(action: TorusAction, beta: PolyMap, weights) -> bool:
    """Exact check of sigma(t) o beta = beta o tau(t), without beta^-1.

    Both sides are Laurent maps, so this multiplies Laurent coefficients.
    The corpus generator uses it on the conjugator it built; the pipeline,
    which holds a proven inverse, checks the same identity over scalar
    images instead (_conjugates_tau).
    """
    tau = build_tau(weights)
    return compose(action.map, beta) == compose(beta, tau.map)


def _conjugates_tau(action: TorusAction, gamma: PolyMap,
                    report: LinearizationReport) -> bool:
    """Exact check of sigma(t) = gamma o tau(t) o gamma^-1, one t-part at a time.

    gamma = T_-c o P^-1 o beta for the report's fixed point c, base change
    P and beta.  The pipeline proved beta o beta^-1 = beta^-1 o beta = id
    for the beta^-1 it read off, and P P^-1 = I exactly, so
    gamma^-1 = beta^-1 o P o T_c, with
    gamma^-1(z_i) = sum_j P_ij beta^-1(z_j) + c_i, is a two-sided inverse.
    Given one, sigma(t) = gamma o tau(t) o gamma^-1 is equivalent to
    sigma(t) o gamma = gamma o tau(t) (verify_conjugation).  tau(t) scales
    each word of gamma^-1(z_i) by its weight, and distinct weights never
    cancel, so the identity holds exactly when gamma substituted into each
    weight part of gamma^-1(z_i) (endo.substitute_parts) is the matching
    t-component of sigma(t)(z_i).  The check stops at the first image that
    differs; every product in it is integer by integer.
    """
    inverse = linear_combinations(report.base_change, report.beta_inverse)
    polys = (weight_parts(inv + c, report.weights)
             for inv, c in zip(inverse, report.fixed_point))
    for img, parts in zip(action.map.images, substitute_parts(gamma, polys)):
        if dict(parts) != t_components(img):
            return False
    return True


def weight_parts(poly: FreePoly, weights) -> dict:
    """{mu: terms}: the words of ``poly`` grouped by their tau-weight.

    tau(t) scales a word w by t^{M(w)}, where M(w) sums the weight rows of
    its letters, so gamma o tau(t) applied to ``poly`` has the t^mu part
    gamma(terms).  Each word's weight is worked out here once, for the
    certificate and for the corpus generator's build and its refusal
    before the build.
    """
    n = len(weights)
    parts = {}
    for word, c in poly.terms.items():
        mu = tuple(sum(weights[l - 1][k] for l in word) for k in range(n))
        parts.setdefault(mu, {})[word] = c
    return parts


def _require_axioms(action: TorusAction) -> None:
    verdict = check_axioms(action)
    if not verdict.ok:
        raise AxiomsFail("the map does not satisfy the action axioms",
                         witness=verdict)


def linearize(action: TorusAction,
              max_degree: Optional[int] = None) -> LinearizationReport:
    """Run the whole pipeline and return a fully verified report.

    A ``max_degree`` below 1 raises ValueError before any stage runs.
    A verified report is its own proof that the input is an action.  When a
    stage fails, or the conjugation does not verify, the axioms are checked:
    a non-action raises AxiomsFail (with witness) whichever stage noticed.
    Genuine actions raise FixedPointNotFound when the point read off the
    t-constant part is not fixed (proof that the action is not effective),
    NotEffective (carrying the partial report) when the weight matrix is
    singular, and NotPolynomialInverseWithinBound if beta fails to invert
    within degree deg(sigma).  They never raise NotDiagonalizable: at a
    verified fixed point the linear part of an action is a torus
    representation, which diagonalizes, so that error comes only from a
    non-action and becomes AxiomsFail.  For an effective action that
    bound always holds, so the failure is surfaced loudly rather than
    retried.  On sigma moved to its fixed point (of the same degree), write
    beta = P o Y and h = Y^-1.  Then sigma(t)(z_j) = h_j(t^{m_1} Y_1, ...),
    so its t^mu component is g_{j,mu} = (h_j)_mu(Y), where (h_j)_mu keeps
    the words of h_j of weight mu.  The weights are linearly independent,
    so a word's weight fixes its letter counts and (h_j)_mu is homogeneous;
    since Y = P^-1 z + (degree >= 2), the lowest-degree part of g_{j,mu} is
    (h_j)_mu(P^-1 z), of the same degree.  Hence deg h <= deg sigma, and
    beta^-1 = h o P^-1 has the degree of h.  It is read off directly: with
    H_j = sum_mu low(g_{j,mu}) = h_j(P^-1 z), beta^-1(z_i) =
    sum_j (P^-1)_{ij} H_j(P z).  The pipeline proves that map's degree is
    within the bound and that it is a two-sided inverse of beta; when
    either fails, it raises NotPolynomialInverseWithinBound.
    """
    if max_degree is not None and max_degree < 1:
        raise ValueError("degree bound must be at least 1")
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
    base_change, weights = weight_decomposition(linear_part(moved))
    if not is_effective(weights):
        raise NotEffective(
            "weight matrix is singular: a subtorus acts trivially",
            report=LinearizationReport(
                rank=n, effective=False, fixed_point=tuple(center),
                base_change=base_change, weights=weights,
                beta=None, beta_inverse=None, degree=action.degree,
                verified=None))
    beta, y, inverse, components = _conjugator(moved, base_change, weights)
    bound = action.degree if max_degree is None else max_degree
    # beta^-1 = h o P^-1 with h(z) = H(P z), proved on both sides below
    beta_inverse = PolyMap(linear_combinations(inverse, compose(
        linear_map(n, base_change), _lowest_parts(components, n))))
    ident = identity_map(n)
    if (beta_inverse.degree() > bound or compose(beta_inverse, beta) != ident
            or compose(beta, beta_inverse) != ident):
        raise NotPolynomialInverseWithinBound(
            f"no polynomial inverse of degree <= {bound}")
    report = LinearizationReport(
        rank=n, effective=True, fixed_point=tuple(center),
        base_change=base_change, weights=weights,
        beta=beta, beta_inverse=beta_inverse,
        degree=bound, verified=None)
    # Verify against the original sparse action: with gamma folding the
    # translation and base change into beta, the identity is literally
    # equivalent to the diagonalized-level conjugation identity, and the
    # original images are far cheaper than the dense diagonalized
    # conjugate.  P^-1 o beta is y itself.
    gamma = compose(translation_map(n, [-x for x in center]), y)
    report.verified = _conjugates_tau(action, gamma, report)
    return report
