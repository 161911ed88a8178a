"""The linearization pipeline, stage by stage, on a worked example.

The running example conjugates the standard diagonal action by the
elementary automorphism (z1, z2 + z1^2) and then hides the origin with a
translation.  The pipeline undoes all of it: it finds the fixed point,
diagonalizes the linear part, tests effectiveness, and extracts the
conjugator beta from the t-constant part of the twisted family phi.
"""

from fractions import Fraction

from falin import (TorusAction, build_phi, conjugate_by_translation, emit_report,
                   extract_beta, fixed_point, linear_part, linearize, parse,
                   poly_str, render, weight_decomposition)

SOURCE = """rank 2
action
z1 -> t1*z1
z2 -> t2*z2 + (t2 - t1^2)*z1^2
end
"""

base = parse(SOURCE).to_action()
# hide the origin: conjugate by the translation (2, -1)
action = TorusAction(conjugate_by_translation(base.map, [Fraction(2), Fraction(-1)]))
print("input action:")
print(render(action))

# stage 1: the fixed point, read off the t-constant part of the constant
# terms and verified symbolically before being returned
center = fixed_point(action)
print("fixed point:", center)
recentred = TorusAction(conjugate_by_translation(action.map, center))

# stage 2: weight-space diagonalization of the linear part
basis, weights = weight_decomposition(linear_part(recentred.map))
print("base change P:", basis)
print("weights M:    ", weights)

# stage 3: phi(t)(z_i) = t^{-m_i} sigma(t)(z_i) has identity linear part;
# its t-constant part is beta
phi = build_phi(recentred, weights)
beta = extract_beta(phi)
print("phi(z2):  ", poly_str(phi.map.images[1]))
print("beta(z2): ", poly_str(beta.images[1]))

# the one-call version does all of the above plus inversion and verification
report = linearize(action)
print()
print("full report:")
print(emit_report(report))
assert report.verified
