"""Exact coefficient and free-algebra arithmetic, from the ground up.

Everything in falin is computed over the exact rationals: Laurent
polynomials in the torus variables t1..tn serve as coefficients, and free
noncommutative polynomials in z1..zn carry them.  This script walks the
two layers.
"""

from fractions import Fraction

from falin import FreePoly, LaurentPoly, f_mul, f_substitute, abelianize, poly_str, laurent_str

# --- Laurent polynomials: sparse maps from exponent vectors to rationals.
# t1^2 - t2^-1 over two torus variables:
p = LaurentPoly(2, {(2, 0): 1, (0, -1): -1})
q = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})          # t1 + t2
print("p      =", laurent_str(p))
print("q      =", laurent_str(q))
print("p * q  =", laurent_str(p * q))
print("p(3,2) =", p.eval([3, 2]))                   # exact: 9 - 1/2 = 17/2

# --- Free polynomials: words of generator indices with central coefficients.
z1 = FreePoly.gen(2, 1)
z2 = FreePoly.gen(2, 2)

# Multiplication concatenates words, so z1*z2 and z2*z1 stay distinct:
print()
print("(z1 + z2)^2      =", poly_str(f_mul(z1 + z2, z1 + z2)))
print("z1*z2 - z2*z1    =", poly_str(f_mul(z1, z2) - f_mul(z2, z1)))

# Substitution is the unique algebra homomorphism with the given images:
shifted = f_substitute(f_mul(z1, z1), [z1 + FreePoly.const(2, Fraction(1, 2)), z2])
print("z1^2 at z1+1/2   =", poly_str(shifted))

# Abelianization forgets the order of letters; commutators die:
print("abelianized z1*z2 - z2*z1 =", laurent_str(abelianize(f_mul(z1, z2) - f_mul(z2, z1))))
print("abelianized z1*z2*z1      =",
      laurent_str(abelianize(FreePoly(2, {(1, 2, 1): 1})), lambda k: f"x{k}"))
