"""The linearization pipeline for effective torus actions.

The pipeline moves a fixed point of sigma to the origin, finds the base
change P with P^-1 A(t) P = diag(t^{m_1}, ..., t^{m_n}) for the linear
part A, rejects the action if the weight matrix is singular, and otherwise
reads the conjugating automorphism beta off the weight components of
sigma: beta(z_i) is the t^{m_i} part of the i-th image of the diagonalized
action, and since the base change does not touch t, that part is taken
before it, as Y = P^-1 o beta.  Y^-1 is read off the same components, from
the lowest-degree part of each (see linearize).

The defining property of beta is the conjugation identity

    sigma(t) o beta = beta o tau(t),

equivalently tau(t) = beta^-1 o sigma(t) o beta.  The pipeline proves Y^-1
on both sides (endo.prove_inverse) and that identity exactly rather than
trusting the construction.  With gamma = T_-c o Y, the identity is checked
as sigma(t) = gamma o tau(t) o gamma^-1 one t-part at a time over scalar
images, with gamma^-1(z_i) = Y^-1(z_i) + c_i, so no Laurent coefficient is
multiplied.  At the origin gamma = Y, composed with no translation, and the
check reuses the t-components that reading off Y split sigma into, so each
image is split once.  Together they certify that sigma is an action, since
it is then conjugate to tau, so the action axioms are checked only when
that certificate is missing.  beta = P o Y and beta^-1 = Y^-1 o P^-1 are formed
for the report only.  A report with verified=False is returned, never
silently dropped; it indicates a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .coefficients import LaurentPoly
from .endo import (PolyMap, compose, conjugate_by_translation,
                   linear_combinations, linear_map, linear_part,
                   prove_inverse, substitute_parts, translation_map)
from .errors import AxiomsFail, FalinError, NotEffective
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
    y = _conjugator(action.map, base_change, weights)[0]
    return compose(linear_map(action.rank, base_change), y)


def _conjugator(moved: PolyMap, base_change, weights):
    """(Y, P^-1, components) for sigma(t) = ``moved`` (see extract_beta).

    components[j] is {m: g_{j,m}}; P^-1 and the components are returned so
    that the pipeline reads Y^-1 off them and forms beta^-1 without forming
    them again.
    """
    n = moved.rank
    inverse = linalg.inverse(base_change)
    components = [t_components(img) for img in moved.images]
    zero = FreePoly.zero(n)
    y = PolyMap([
        linear_combinations([row], PolyMap(
            [parts.get(tuple(m), zero) for parts in components]))[0]
        for row, m in zip(inverse, weights)])
    return y, inverse, components


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


def _conjugates_tau(sigma_parts, gamma: PolyMap, h: PolyMap,
                    center, weights) -> bool:
    """Exact check of sigma(t) = gamma o tau(t) o gamma^-1, one t-part at a time.

    ``sigma_parts`` gives t_components of each image of sigma(t) in turn,
    so the pipeline hands over the split it already made when sigma fixes
    the origin.  gamma = T_-c o Y for the fixed point c = ``center`` (just
    Y at the origin), and the pipeline proved h = Y^-1 on both sides, so
    gamma^-1 = h o T_c, with gamma^-1(z_i) = h_i + c_i, is a two-sided
    inverse.  Given one, sigma(t) = gamma o tau(t) o gamma^-1 is equivalent
    to sigma(t) o gamma = gamma o tau(t) (verify_conjugation).  tau(t)
    scales each word of gamma^-1(z_i) by its weight, and distinct weights
    never cancel, so the identity holds exactly when gamma substituted into
    each weight part of gamma^-1(z_i) (endo.substitute_parts) is the
    matching t-component of sigma(t)(z_i).  The check stops at the first
    image that differs; every product in it is integer by integer.
    """
    polys = (weight_parts(img + c if c else img, weights)
             for img, c in zip(h.images, center))
    for components, parts in zip(sigma_parts, substitute_parts(gamma, polys)):
        if dict(parts) != components:
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
    rows = [(0,) * len(weights), *map(tuple, weights)]  # indexed by letter
    row = rows.__getitem__
    parts = {}
    for word, c in poly.terms.items():
        mu = tuple(map(sum, zip(*map(row, word)))) if word else rows[0]
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
    singular, and NotPolynomialInverseWithinBound if Y fails to invert
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
    (h_j)_mu(P^-1 z), of the same degree.  Hence deg h <= deg sigma.  h is
    read off directly: with H_j = sum_mu low(g_{j,mu}) = h_j(P^-1 z),
    h_j = H_j(P z).  The pipeline proves that h's degree is within the
    bound and that it is a two-sided inverse of Y (endo.prove_inverse),
    or raises NotPolynomialInverseWithinBound.  That is the proof for
    beta and beta^-1 = h o P^-1 = P^-1 h as well: P is exact, so
    compose(beta^-1, beta) = compose(h, Y), compose(beta, beta^-1) is the
    identity exactly when compose(Y, h) is, and deg beta^-1 = deg h.
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
    y, inverse, components = _conjugator(moved, base_change, weights)
    bound = action.degree if max_degree is None else max_degree
    p = linear_map(n, base_change)
    # h = Y^-1 with h(z) = H(P z) (see linearize), proved on both sides
    h = compose(p, _lowest_parts(components, n))
    prove_inverse(y, h, bound)
    # Verify against the original sparse action: with gamma folding the
    # translation into Y, the identity is literally equivalent to the
    # diagonalized-level conjugation identity, and the original images are
    # far cheaper than the dense diagonalized conjugate.  At the origin
    # gamma is Y and sigma's images are the ones already split by t.
    if moved is action.map:
        gamma, sigma_parts = y, components
    else:
        gamma = compose(translation_map(n, [-x for x in center]), y)
        sigma_parts = map(t_components, action.map.images)
    verified = _conjugates_tau(sigma_parts, gamma, h, center, weights)
    return LinearizationReport(
        rank=n, effective=True, fixed_point=tuple(center),
        base_change=base_change, weights=weights,
        beta=compose(p, y),
        beta_inverse=PolyMap(linear_combinations(inverse, h)),
        degree=bound, verified=verified)
