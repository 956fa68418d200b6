"""Parse scalar expressions, differentiate them, and push second-order
jets through them.

A second-order jet at a point is the triple (value, gradient, hessian).
The jet evaluator propagates derivatives through the expression tree
with exact rules, so the hessian of a smooth formula comes out bitwise
symmetric and matches the plain values of the formula's symbolic
derivatives (ScalarField.diff) to rounding.
"""

import numpy as np

from solitonlab import eval_jet2, parse_expression

chart = ("u", "v")
field = parse_expression("sin(u*v) + exp(0.3*u) / (v + 2)", chart)

print("expression :", field)
print("d/du       :", field.diff("u"))
print("d2/du dv   :", field.diff("u").diff("v"))
print()

point = (0.7, 1.4)
jet = eval_jet2(field, point)
print(f"value at {point}: {jet.value:.12f}")
print("gradient:", jet.gradient)
print("hessian:")
print(jet.hessian)
print("hessian bitwise symmetric:", np.array_equal(jet.hessian, jet.hessian.T))
print()

# Cross-check against the symbolic derivatives, evaluated as plain
# formulas: a second route to the same numbers.
grad = np.array([field.diff(a)(point) for a in chart])
hess = np.array([[field.diff(a).diff(b)(point) for b in chart] for a in chart])
print(f"max |grad - symbolic grad|: {np.max(np.abs(jet.gradient - grad)):.3e}")
print(f"max |hess - symbolic hess|: {np.max(np.abs(jet.hessian - hess)):.3e}")
print()

# Jets are exact on polynomials: a quadratic reproduces its own hessian.
quad = parse_expression("2*u^2 - 3*u*v + 0.5*v^2 + u - 7", chart)
qjet = eval_jet2(quad, (10.0, -4.0))
print("quadratic hessian (exact 4, -3, -3, 1):")
print(qjet.hessian)
