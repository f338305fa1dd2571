"""Computer-algebra script export: the general-forms power-decomposition check.

The `export` command writes a Macaulay2 or Singular script that builds the
configuration ideal of s linear forms over the rationals, its ell-th power
and the conjectured intersection of symbolic powers, and prints whether they
are equal.  The forms are exact coefficient tuples: Fractions, or ints for
the coordinate hyperplanes, so the default export never imports fractions.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import config
from .errors import UsageError, check_cap


def coordinate_forms(s: int) -> list[tuple[int, ...]]:
    """The monomial model: the s coordinate hyperplanes of P^{s-1}, with integer coefficients."""
    return [tuple(1 if j == i else 0 for j in range(s)) for i in range(s)]


def _printable(coeff: str) -> str:
    """The coefficient, refused as malformed when its digits and written exponent pass 4,300 digits.

    The digits are the mantissa's, or those of a/b's longer part; with the
    exponent they bound the digits of the Fraction's numerator and
    denominator.  That is Python's int-to-str limit, so the script could not
    print them, and Fraction would build 10^exponent first.
    """
    mantissa, e, exponent = coeff.lower().partition("e")
    exponent = exponent.replace("_", "").lstrip("+-").lstrip("0")
    shift = int(exponent[:5]) if e and exponent.isdigit() else 0  # five significant digits already pass 4,300
    if max(sum(map(str.isdigit, part)) for part in mantissa.split("/")) + shift > 4300:
        raise ValueError("more than 4300 digits")
    return coeff


def parse_forms(text: str) -> list[tuple]:
    """Parse ``a,b,c;d,e,f;...`` into coefficient tuples (exact rationals)."""
    from fractions import Fraction

    forms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty linear form in --forms")
        try:
            coeffs = tuple(Fraction(_printable(p.strip())) for p in chunk.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed coefficient in {chunk!r}: {exc}") from None
        forms.append(coeffs)
    widths = {len(f) for f in forms}
    if len(widths) != 1:
        raise UsageError(f"linear forms have inconsistent lengths {sorted(widths)}")
    if all(all(x == 0 for x in f) for f in forms):
        raise UsageError("all forms are zero")
    return forms


def _pairwise_dependent(forms: list[tuple]) -> list[tuple[int, int]]:
    """The pairs i < j of proportional forms, in order; a zero form is proportional to every form.

    Nonzero forms are proportional iff they agree once each is divided by its
    first nonzero coefficient, so they are grouped by that scaling.  The key
    stays exact: Fractions divide exactly, and an int form (a coordinate
    hyperplane) leads with 1 and is kept as it is.
    """
    groups: dict[tuple | None, list[int]] = {}
    for i, f in enumerate(forms):
        lead = next((x for x in f if x != 0), 0)
        key = None if lead == 0 else f if lead == 1 else tuple(x / lead for x in f)
        groups.setdefault(key, []).append(i)
    zeros = groups.pop(None, [])
    pairs = {pair for members in groups.values() for pair in combinations(members, 2)}
    pairs.update((min(i, z), max(i, z)) for z in zeros for i in range(len(forms)) if i != z)
    return sorted(pairs)


def _coeff_str(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _form_str(coeffs: tuple) -> str:
    parts = []
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        if a == 1:
            parts.append(f"x{i}")
        else:
            parts.append(f"({_coeff_str(a)})*x{i}")
    return " + ".join(parts) if parts else "0"


def export_cas(s: int, c: int, ell: int, target: str, forms: list[tuple] | None) -> str:
    """Emit a script for an external computer-algebra system.

    The script builds the codimension-c configuration ideal of the given
    hyperplanes over the rationals, its ell-th power, and the conjectured
    intersection of symbolic powers, and prints whether they are equal.
    The number of variables is the length of the coefficient tuples; the
    forms must number s > n.  forms None means the coordinate hyperplanes
    (n = s-1), built only once every check has passed.
    """
    if target not in ("m2-syntax", "singular-syntax"):
        raise UsageError(f"unknown export target {target!r}")
    if forms is not None and len(forms) != s:
        raise UsageError(f"expected {s} linear forms, got {len(forms)}")
    config.check_ell(ell)
    n = s - 1 if forms is None else len(forms[0]) - 1
    if n < 1:
        raise UsageError("forms must have at least 2 coefficients")
    if s <= n:
        raise UsageError(f"the configuration needs s > n, got s={s}, n={n}")
    config.StarConfig(s, c)  # range validation for c
    if c > n:
        raise UsageError(f"codimension c={c} exceeds the ambient dimension n={n}")
    # the entries the script holds: s(n+1) form coefficients, then k names per k-subset of forms,
    # counted from k = n down, so that a huge s stops before a large binomial is evaluated
    entries = s * (n + 1)
    for k in range(n, c - 1, -1):
        if entries > config.DEFAULT_ENUM_CAP:
            break
        entries += comb(s, k) * k
    check_cap(entries, config.DEFAULT_ENUM_CAP, "the script's form coefficients and subset entries reach {}")
    forms = coordinate_forms(s) if forms is None else forms
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
