"""The linearization pipeline, stage by stage, on a worked example.

The running example conjugates the standard diagonal action by the
elementary automorphism (z1, z2 + z1^2) and then hides the origin with a
translation.  The pipeline undoes all of it: it finds the fixed point,
diagonalizes the linear part, tests effectiveness, and reads the
conjugator beta off the weight components of the action.
"""

from fractions import Fraction

from falin import (TorusAction, conjugate_by_translation, emit_report,
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
# linearize translates only sigma's split by t, part by part; the demo
# translates the whole action, so that it can show each stage on it
recentred = TorusAction(conjugate_by_translation(action.map, center))
print("recentred action:")
print(render(recentred))

# stage 2: weight-space diagonalization of the linear part
basis, weights = weight_decomposition(linear_part(recentred.map))
print("base change P:", basis)
print("weights M:    ", weights)

# stage 3: beta(z_i) is the t^{m_i} part of the i-th image of the
# diagonalized action P^-1 sigma(t)(P z); it is read off the weight
# components of sigma before the base change, which does not touch t
beta = extract_beta(recentred, basis, weights)
print("beta(z2): ", poly_str(beta.images[1]))

# the one-call version does all of the above plus inversion and verification
report = linearize(action)
print()
print("full report:")
print(emit_report(report))
assert report.verified
