"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a map from
exponent tuples to nonzero Fraction coefficients.  The same object doubles
as a truncated power series: ``truncate`` chops every term above a total
degree, and ``order`` reports the minimal total degree of a term.

The module also houses the expression parser (recursive descent over the
fixed input grammar), canonical printing in descending graded-lex order,
branch parametrizations and the delta/r record of a singularity, and
exact weight-system feasibility for two variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log10
from operator import add
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import ParseError, UndeclaredVariable

Monomial = tuple  # tuple[int, ...]; one exponent per ambient variable
Scalar = Union[int, Fraction]


def grlex_key(mono: Monomial):
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(mono), mono)


def multiply_terms(a: Mapping[Monomial, Scalar], b: Mapping[Monomial, Scalar]) -> dict:
    """The product of two term maps, int or Fraction coefficients alike,
    without the terms that cancel."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Scalar]):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        n = len(self.vars)
        for mono, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for variables {self.vars}")
            clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _unchecked(cls, variables: tuple, terms: dict) -> "Poly":
        """Internal arithmetic's constructor, with no validation or copy:
        ``variables`` is a tuple and ``terms`` maps exponent tuples of its
        length to nonzero Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: Scalar) -> "Poly":
        return cls(variables, {(0,) * len(tuple(variables)): Fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        mono = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {mono: 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> Optional[int]:
        """Minimal total degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coeff((0,) * len(self.vars))

    def linear_part(self) -> "Poly":
        return Poly(self.vars, {m: c for m, c in self.terms.items() if sum(m) == 1})

    def _check(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                del out[m]
        return Poly._unchecked(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly._unchecked(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._unchecked(self.vars, multiply_terms(self.terms, other.terms))

    def scale(self, value: Scalar) -> "Poly":
        value = Fraction(value)
        if not value:
            return Poly._unchecked(self.vars, {})
        return Poly._unchecked(self.vars, {m: c * value for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        """self**n exactly: c^n * x^(n*m) in one step for a one-term
        c * x^m, square-and-multiply for a sum."""
        if n < 0:
            raise ValueError("negative exponent")
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            return Poly._unchecked(self.vars, {tuple(n * e for e in mono): c ** n})
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, max_degree: int) -> "Poly":
        return Poly._unchecked(
            self.vars, {m: c for m, c in self.terms.items() if sum(m) <= max_degree}
        )

    def diff(self, var: str) -> "Poly":
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        out: dict = {}
        for m, c in self.terms.items():
            if m[i]:  # distinct such m give distinct dm, so nothing cancels
                out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
        return Poly._unchecked(self.vars, out)

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Compose with one image polynomial per ambient variable, exactly.

        The composition is formed whole, never truncated; each power of an
        image is computed once per call.
        """
        missing = [v for v in self.vars if v not in images]
        if missing:
            raise ValueError(f"no image supplied for {missing}")
        ambients = {img.vars for img in images.values()}
        if len(ambients) != 1:
            raise ValueError(
                "images live in different ambient rings" if ambients
                else "no images supplied"
            )
        (target_vars,) = ambients
        powers: dict = {}  # (var, e) -> images[var] ** e
        out: dict = {}
        for m, c in self.terms.items():
            piece = Poly._unchecked(target_vars, {(0,) * len(target_vars): c})
            for var, e in zip(self.vars, m):
                if e:
                    if (var, e) not in powers:
                        powers[var, e] = images[var] ** e
                    piece = piece * powers[var, e]
            for tm, tc in piece.terms.items():
                out[tm] = out.get(tm, 0) + tc
        return Poly._unchecked(target_vars, {m: c for m, c in out.items() if c})

    # -- comparison / printing --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _format_monomial(self, mono: Monomial) -> str:
        factors = []
        for var, e in zip(self.vars, mono):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{e}")
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[mono]
            mstr = self._format_monomial(mono)
            mag = abs(coeff)
            if not mstr:
                body = str(mag)
            elif mag == 1:
                body = mstr
            else:
                body = f"{mag}*{mstr}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self.vars!r}, {self!s})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^/()]))")

# The parser recurses four frames per parenthesis level; this keeps it well
# inside Python's recursion limit.
MAX_NESTING = 100

# Most terms a product or power formed while parsing may have, by the bound
# of _product_terms or _power_terms, checked before it is formed: fifty
# times the largest polynomial in the corpus, tests and benchmark (5 terms).
MAX_TERMS = 256

# Most decimal digits a coefficient's numerator or denominator may have,
# checked on each power before it is formed and on each product and sum
# after: Python's default limit for printing an int, so every parsed
# polynomial prints.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_DIGITS


def _check_digits(coefficients: Iterable[Scalar], position: int) -> None:
    for c in coefficients:
        if abs(c.numerator) >= _DIGITS_BOUND or c.denominator >= _DIGITS_BOUND:
            raise ParseError(
                f"coefficient has more than {MAX_DIGITS} digits", position
            )


def _check_power_digits(p: Poly, n: int, position: int) -> None:
    """Raise :class:`ParseError` if p^n may have a coefficient of more than
    ``MAX_DIGITS`` digits, before it is formed.

    With p = P / D, for D the lcm of p's denominators, p^n = P^n / D^n, and
    each coefficient of P^n is at most S^n for S the sum of P's absolute
    coefficients; so each numerator and denominator of p^n is at most M^n,
    M = max(S, D), which has at most n * log10(M) + 1 digits.  For one
    term the bound is exact.  With M >= 2 the bound passes the limit once
    n > 4 * MAX_DIGITS, which is checked first, so no float overflows.
    """
    coefficients = p.terms.values()
    D = lcm(*(c.denominator for c in coefficients))
    M = max(D, sum(abs(c.numerator) * (D // c.denominator) for c in coefficients))
    if M > 1 and (n > 4 * MAX_DIGITS or n * log10(M) >= MAX_DIGITS):
        raise ParseError(
            f"power may have a coefficient of more than {MAX_DIGITS} digits",
            position,
        )


def _product_terms(a: Poly, b: Poly) -> int:
    """A bound on the terms of a * b: its exponents are sums of one of a's
    and one of b's, so at most the number of pairs, inside the box that
    a's and b's boxes add up to."""
    box = 1
    for col_a, col_b in zip(zip(*a.terms), zip(*b.terms)):
        box *= max(col_a) + max(col_b) - min(col_a) - min(col_b) + 1
    return min(len(a.terms) * len(b.terms), box)


def _power_terms(p: Poly, n: int) -> int:
    """A bound on the terms of p^n, for p of k >= 2 terms: a product of n
    of them, so at most the comb(n + k - 1, k - 1) multisets, inside n
    times p's box."""
    if n >= MAX_TERMS:  # both bounds are at least n + 1, over the cap
        return n + 1
    k = len(p.terms)
    multisets = comb(n + k - 1, k - 1)
    if multisets <= MAX_TERMS:
        return multisets
    box = 1
    for column in zip(*p.terms):
        box *= n * (max(column) - min(column)) + 1
    return min(multisets, box)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m or m.end() == m.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.group(1) is not None:
            try:
                int(m.group(1))
            except ValueError:  # past int's digit limit
                raise ParseError("integer literal too long", m.start(1))
            tokens.append(("INT", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append(("OP", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str]):
        self.source = source
        self.vars = tuple(variables)
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Poly:
        result = self.expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {val!r}", pos)
        return result

    def expr(self) -> Poly:
        if self.peek()[:2] == ("OP", "-"):
            self.next()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[0] == "OP" and self.peek()[1] in "+-":
            _, op, pos = self.next()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
            _check_digits((acc.terms.get(m, 0) for m in t.terms), pos)
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek()[:2] == ("OP", "*"):
            _, _, pos = self.next()
            factor = self.factor()
            if len(acc.terms) * len(factor.terms) > MAX_TERMS:
                _check_terms(_product_terms(acc, factor), pos)
            acc = acc * factor
            _check_digits(acc.terms.values(), pos)
        return acc

    def factor(self) -> Poly:
        base = self.base()
        if self.peek()[:2] == ("OP", "^"):
            _, _, op_pos = self.next()
            kind, val, pos = self.next()
            if kind != "INT":
                raise ParseError("exponent is not a natural number", pos)
            n = int(val)
            if len(base.terms) > 1:
                _check_terms(_power_terms(base, n), op_pos)
            _check_power_digits(base, n, op_pos)
            return base ** n
        return base

    def base(self) -> Poly:
        kind, val, pos = self.next()
        if kind == "INT":
            num = int(val)
            if self.peek()[:2] == ("OP", "/"):
                self.next()
                kind2, val2, pos2 = self.next()
                if kind2 != "INT" or int(val2) == 0:
                    raise ParseError("denominator must be a positive integer", pos2)
                return Poly.const(self.vars, Fraction(num, int(val2)))
            return Poly.const(self.vars, num)
        if kind == "NAME":
            if val not in self.vars:
                raise UndeclaredVariable(f"undeclared variable {val!r}", pos)
            return Poly.variable(self.vars, val)
        if kind == "OP" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def _check_terms(bound: int, position: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(
            f"expansion may reach {bound} terms, over the cap of {MAX_TERMS}",
            position,
        )


def parse_poly(source: str, variables: Sequence[str]) -> Poly:
    """Parse an expression over the declared variables.

    Grammar: sums of products of rationals, variables, and parenthesized
    subexpressions with natural-number exponents; no implicit
    multiplication; a single unary minus is allowed at the head of a term.
    Parentheses nest at most ``MAX_NESTING`` deep, no product or power
    may be bounded above ``MAX_TERMS`` terms (see :func:`_product_terms`
    and :func:`_power_terms`), and no coefficient may have a numerator or
    denominator of more than ``MAX_DIGITS`` digits (a power's bound is
    :func:`_check_power_digits`).
    """
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# Branch parametrizations
# ---------------------------------------------------------------------------

BRANCH_PARAM_VAR = "t"


@dataclass(frozen=True)
class BranchParam:
    """One univariate image polynomial (in t) per ambient variable."""

    images: tuple

    def __post_init__(self):
        if not self.images:
            raise ValueError("empty parametrization")
        for img in self.images:
            if img.vars != (BRANCH_PARAM_VAR,):
                raise ValueError("branch images must be univariate in t")
            if img.constant_term() != 0:
                raise ValueError("branch images must have zero constant term")
        if all(img.is_zero() for img in self.images):
            raise ValueError("all branch images are zero")

    def as_map(self, variables: Sequence[str]) -> dict:
        variables = tuple(variables)
        if len(variables) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images for {len(variables)} variables"
            )
        return dict(zip(variables, self.images))


def parse_branch(images: Iterable[str]) -> BranchParam:
    return BranchParam(tuple(parse_poly(s, (BRANCH_PARAM_VAR,)) for s in images))


@dataclass(frozen=True)
class DeltaR:
    """delta and branch count r of one singularity, tagged with their source.

    ``provenance`` is "computed" (from branches or a parametrization) or
    "asserted-input" (supplied by the curve document).
    """

    delta: int
    r: int
    provenance: str


# ---------------------------------------------------------------------------
# Weight feasibility (two variables)
# ---------------------------------------------------------------------------


def weight_feasibility(f: Poly) -> Optional[Tuple[Fraction, Fraction]]:
    """Positive rational weights (w1, w2) with a*w1 + b*w2 = 1 on the support.

    Returns None when the linear system is infeasible over the positive
    rationals.  When the support does not pin the weights down, the
    tie-break minimizes |w1 - w2| and then w1, which lands on the symmetric
    point of the feasible segment.
    """
    if len(f.vars) != 2:
        raise ValueError("weight feasibility is defined for two variables")
    if f.is_zero():
        raise ValueError("zero polynomial has no weight system")
    rows = sorted(set(f.terms), key=grlex_key)
    if len(rows) == 1:
        a, b = rows[0]
        if a + b == 0:
            return None  # constant term: 0 = 1 infeasible
        w = Fraction(1, a + b)
        return (w, w)
    # Two or more distinct support monomials: either some pair is linearly
    # independent (unique candidate) or two distinct rows are proportional,
    # which contradicts equal right-hand sides.
    first = rows[0]
    for other in rows[1:]:
        det = first[0] * other[1] - first[1] * other[0]
        if det != 0:
            a1, b1 = first
            a2, b2 = other
            w1 = Fraction(b2 - b1, det)
            w2 = Fraction(a1 - a2, det)
            if w1 <= 0 or w2 <= 0:
                return None
            if any(a * w1 + b * w2 != 1 for a, b in rows):
                return None
            if not euler_relation_holds(f, w1, w2):
                raise AssertionError("weight system fails the exact Euler relation")
            return (w1, w2)
    return None  # all rows proportional but distinct: inconsistent


def euler_relation_holds(f: Poly, w1: Scalar, w2: Scalar) -> bool:
    """Exact check of f = w1*u*f_u + w2*v*f_v."""
    u, v = f.vars
    lhs = (
        Poly.variable(f.vars, u) * f.diff(u)
    ).scale(Fraction(w1)) + (Poly.variable(f.vars, v) * f.diff(v)).scale(Fraction(w2))
    return lhs == f
