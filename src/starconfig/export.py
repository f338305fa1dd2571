"""Computer-algebra script export: the general-forms power-decomposition check.

The `export` command writes a Macaulay2 or Singular script that builds the
configuration ideal of s linear forms over the rationals, its ell-th power
and the conjectured intersection of symbolic powers, and prints whether they
are equal.  The forms are exact rational coefficient tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from . import star
from .errors import ResourceCapError, UsageError


def coordinate_forms(s: int) -> list[tuple[Fraction, ...]]:
    """The monomial model: the s coordinate hyperplanes of P^{s-1}."""
    return [tuple(Fraction(1 if j == i else 0) for j in range(s)) for i in range(s)]


def parse_forms(text: str) -> list[tuple[Fraction, ...]]:
    """Parse ``a,b,c;d,e,f;...`` into coefficient tuples (exact rationals)."""
    forms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty linear form in --forms")
        try:
            coeffs = tuple(Fraction(p.strip()) for p in chunk.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed coefficient in {chunk!r}: {exc}") from None
        forms.append(coeffs)
    widths = {len(f) for f in forms}
    if len(widths) != 1:
        raise UsageError(f"linear forms have inconsistent lengths {sorted(widths)}")
    if all(all(x == 0 for x in f) for f in forms):
        raise UsageError("all forms are zero")
    return forms


def _pairwise_dependent(forms: list[tuple[Fraction, ...]]) -> list[tuple[int, int]]:
    # a pair is dependent iff its 2 x (n+1) matrix has rank < 2: all its 2x2 minors vanish
    return [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(forms), 2)
        if all(a[p] * b[q] == a[q] * b[p] for p, q in combinations(range(len(a)), 2))
    ]


def _coeff_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _form_str(coeffs: tuple[Fraction, ...]) -> str:
    parts = []
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        if a == 1:
            parts.append(f"x{i}")
        else:
            parts.append(f"({_coeff_str(a)})*x{i}")
    return " + ".join(parts) if parts else "0"


def export_cas(
    s: int, c: int, ell: int, target: str, forms: list[tuple[Fraction, ...]]
) -> str:
    """Emit a script for an external computer-algebra system.

    The script builds the codimension-c configuration ideal of the given
    hyperplanes over the rationals, its ell-th power, and the conjectured
    intersection of symbolic powers, and prints whether they are equal.
    The number of variables is the length of the coefficient tuples; the
    forms must number s > n.
    """
    if target not in ("m2-syntax", "singular-syntax"):
        raise UsageError(f"unknown export target {target!r}")
    if len(forms) != s:
        raise UsageError(f"expected {s} linear forms, got {len(forms)}")
    star.check_ell(ell)
    n = len(forms[0]) - 1
    if n < 1:
        raise UsageError("forms must have at least 2 coefficients")
    if s <= n:
        raise UsageError(f"the configuration needs s > n, got s={s}, n={n}")
    star.StarConfig(s, c)  # range validation for c
    if c > n:
        raise UsageError(f"codimension c={c} exceeds the ambient dimension n={n}")
    listed = sum(comb(s, k) for k in range(c, n + 1))
    if listed > star.DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"the script lists {listed} subsets of forms, cap is {star.DEFAULT_ENUM_CAP}")
    m_exp = (s - c + 1) * ell
    m2 = target == "m2-syntax"
    comment = "--" if m2 else "//"
    variables = [f"x{i}" for i in range(n + 1)]
    lines = [
        f"{comment} codimension {c} configuration of {s} hyperplanes in P^{n}",
        f"{comment} checks the power decomposition for l = {ell}",
        *(
            f"{comment} WARNING: forms {i} and {j} are proportional; the arrangement does not meet properly"
            for i, j in _pairwise_dependent(forms)
        ),
        f"R = QQ[{','.join(variables)}];" if m2 else f"ring R = 0, ({','.join(variables)}), dp;",
        *(f"{'' if m2 else 'poly '}L{i} = {_form_str(f)};" for i, f in enumerate(forms)),
    ]
    terms = ", ".join(f"T{j}" for j in range(n - c + 1))

    def subsets(size):
        return [", ".join(f"L{i}" for i in sub) for sub in combinations(range(s), size)]

    if m2:
        lines.append(f"Ipow = (intersect({', '.join(f'ideal({g})' for g in subsets(c))}))^{ell};")
        for j in range(n - c + 1):
            powers = ", ".join(f"(ideal({g}))^{(j + 1) * ell}" for g in subsets(c + j))
            lines.append(f"T{j} = intersect({powers});")
        lines += [
            f"Mpow = (ideal({', '.join(variables)}))^{m_exp};",
            f"RHS = intersect({terms}, Mpow);",
            "print(Ipow == RHS);",
        ]
    else:
        components = subsets(c)
        lines += [f"ideal C{k} = {g};" for k, g in enumerate(components)]
        lines.append(f"ideal I = intersect({', '.join(f'C{k}' for k in range(len(components)))});")
        lines.append(f"ideal Ipow = I^{ell};")
        for j in range(n - c + 1):
            primes = subsets(c + j)
            lines += [f"ideal P{j}_{k} = {g};" for k, g in enumerate(primes)]
            powers = ", ".join(f"P{j}_{k}^{(j + 1) * ell}" for k in range(len(primes)))
            lines.append(f"ideal T{j} = intersect({powers});")
        lines += [
            f"ideal M = {', '.join(variables)};",
            f"ideal RHS = intersect({terms}, M^{m_exp});",
            "ideal sIpow = std(Ipow);",
            "ideal sRHS = std(RHS);",
            "int equal = (size(reduce(Ipow, sRHS)) == 0) && (size(reduce(RHS, sIpow)) == 0);",
            'printf("%s", equal);',
            "exit;",
        ]
    return "\n".join(lines) + "\n"


__all__ = ["coordinate_forms", "export_cas", "parse_forms"]
