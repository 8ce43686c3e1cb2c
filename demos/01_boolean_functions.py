"""Boolean functions over named variables: construction, algebra, projection.

Run:  python demos/01_boolean_functions.py
"""

from boolsynth import BoolFunc, VariableSet, parse_expr

# Functions are truth tables over an ordered scope.  Literals are the
# simplest building block; operators align scopes automatically.
e1, e2, u1 = BoolFunc.var("e1"), BoolFunc.var("e2"), BoolFunc.var("u1")

f = (e1 | e2) & ~u1
print("f              =", f.to_expr())
print("scope          =", list(f.scope))
print("satisfying set =", [str(v) for v in f.satisfying_valuations()])

# The same function can be parsed from infix text.  The grammar knows
# ! & ^ | -> <-> with the usual precedences.
scope = VariableSet(["e1", "e2", "u1"])
g = parse_expr("(e1 | e2) & !u1", scope)
print("parsed equal   =", f.equivalent(g))

# Existential projection answers "for which e1 does some e2 make f true?"
xor = parse_expr("e1 ^ e2", VariableSet(["e1", "e2"]))
print("xor | e1       =", xor.project(VariableSet(["e1"])).to_expr(), "(every e1 works)")

conj = parse_expr("e1 & e2", VariableSet(["e1", "e2"]))
print("conj | e1      =", conj.project(VariableSet(["e1"])).to_expr())

# Substitution composes functions.
h = parse_expr("w | u1", VariableSet(["w", "u1"]))
print("subst w:=e1&e2 =", h.substitute({"w": conj}).to_expr())

# Semantic checks are one-liners.
imp = parse_expr("e1 -> (e1 | e2)", scope)
print("tautology?     =", imp.is_true)
