"""Closed-form subspace counts and the named bound registry.

Everything returns exact Python integers.  The central primitive is

    s_count(l, k, d, n, q)
        = q^((l+1)(d-k)) * gaussian(n-k-l-1, d-k, q),

the number of d-subspaces of PG(n,q) that contain a fixed k-subspace K and
are skew to a fixed l-subspace L disjoint from K.  The overloaded helper
s(...) mirrors the usual shorthands: s(n) counts points of PG(n,q),
s(d, n) counts d-subspaces of PG(n,q), s(k, d, n) drops the skew
constraint.

The registry at the bottom names every closed form used elsewhere so CLI
reports can cite the defining identity next to each value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def gaussian(n: int, d: int, q: int) -> int:
    """Gaussian coefficient [n d]_q; zero unless 0 <= d <= n.

    The product is evaluated with exact integer division; every partial
    product is itself a Gaussian coefficient, so each division is checked
    to leave no remainder.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if d < 0 or n < 0 or d > n:
        return 0
    out = 1
    for i in range(1, d + 1):
        out *= q ** (n + 1 - i) - 1
        out, rem = divmod(out, q ** i - 1)
        if rem:
            raise AssertionError("non-exact division in gaussian(%d,%d,%d)" % (n, d, q))
    return out


def s_count(l: int, k: int, d: int, n: int, q: int) -> int:
    """d-subspaces of PG(n,q) containing a fixed k-space, skew to a fixed
    disjoint l-space.  l = -1 or k = -1 drop the respective constraint."""
    if l < -1 or k < -1 or n < -1:
        raise ValueError("projective dimensions start at -1")
    g = gaussian(n - k - l - 1, d - k, q)
    if g == 0:
        return 0
    return q ** ((l + 1) * (d - k)) * g


def s(*args: int, q: int) -> int:
    """Arity-overloaded shorthand for s_count.

    s(n)          points of PG(n,q)
    s(d, n)       d-subspaces of PG(n,q)
    s(k, d, n)    d-subspaces through a fixed k-subspace
    s(l, k, d, n) the full constrained count
    """
    if len(args) == 1:
        return s_count(-1, -1, 0, args[0], q)
    if len(args) == 2:
        return s_count(-1, -1, args[0], args[1], q)
    if len(args) == 3:
        return s_count(-1, args[0], args[1], args[2], q)
    if len(args) == 4:
        return s_count(args[0], args[1], args[2], args[3], q)
    raise TypeError("s() takes 1 to 4 positional arguments")


def poly_eval(coeffs: tuple[int, ...], q: int) -> int:
    """Evaluate a polynomial given by ascending coefficients."""
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


def universe_size_formula(q: int) -> int:
    """Number of plane-solid flags of PG(6,q)."""
    return gaussian(7, 4, q) * gaussian(4, 3, q)


def independence_number_formula(q: int) -> int:
    """The paper's independence number alpha for q > 27; at the supported
    q <= 16, the size of the constructed Lambda families, a lower bound on alpha."""
    return gaussian(6, 4, q) * gaussian(4, 3, q) + gaussian(5, 3, q) * q ** 3


# ascending coefficients of the expanded form of independence_number_formula
_INDEPENDENCE_POLY = (1, 2, 4, 7, 9, 11, 11, 10, 7, 5, 2, 1)


def independence_number_expanded(q: int) -> int:
    return poly_eval(_INDEPENDENCE_POLY, q)


def lambda_family_size(m: int, q: int) -> int:
    """Size of a hyperplane family with m extra planes: s(3,5) s(3) + m q^3."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return s(3, 5, q=q) * s(3, q=q) + m * q ** 3


def ekr_planes_max(q: int) -> int:
    """Largest pairwise-intersecting plane family of PG(5,q): s(1,4)."""
    return s(1, 4, q=q)


def line_meeting_planes_max(n: int, q: int) -> int:
    """Largest family of planes of PG(n,q), n >= 5, pairwise meeting in a line."""
    if n < 5:
        raise ValueError("the pairwise line-meeting bound needs n >= 5")
    return s(n - 2, q=q)


def plane_disjoint_solid_meeting_bound(xi: int, q: int) -> int:
    """Bound s(2) s(1,4) xi on flags whose plane misses and solid meets a
    fixed plane, with at most xi flags per solid."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    return s(2, q=q) * s(1, 4, q=q) * xi


def solids_meeting_three_planes_bound(q: int) -> int:
    """Bound on solids meeting three planes that pairwise share exactly one
    common point, counted from a second point outside their span."""
    return poly_eval((1, 1, 2, 4, 7, 6, 3), q)


def planes_meeting_two_solids_bound(q: int) -> int:
    """Stated bound on planes through a point meeting two disjoint-from-the-
    point solids that share at most a line."""
    return poly_eval((1, 1, 2, 2, 3, 2, 2), q)


def planes_meeting_two_solids_exact(u: int, q: int) -> int:
    """Exact count behind planes_meeting_two_solids_bound.

    u is the dimension of the intersection of the first solid with the span
    of the point and the second solid; u in {-1, 0, 1, 2}.
    """
    if u not in (-1, 0, 1, 2):
        raise ValueError("u must be in -1..2")
    a = s(3, q=q) - s(u, q=q)
    return (a * a
            + s(0, 1, u + 1, q=q) * (s(1, 2, 6, q=q) - s(1, 2, u + 1, q=q))
            + s(0, 2, u + 1, q=q))


def chromatic_lower_poly(q: int) -> int:
    return q ** 4 - q ** 2 + 2 * q + 1


def chromatic_upper_poly(q: int) -> int:
    return q ** 4 + q ** 3 + q ** 2 + 1


def chromatic_upper_trivial(q: int) -> int:
    """Class count of the one-point-per-plane coloring: s(4)."""
    return s(4, q=q)


def type3_independence(q: int) -> int:
    """Largest co-clique of the solid Kneser graph of PG(6,q): s(3,5)."""
    return s(3, 5, q=q)


def type3_second_largest(q: int) -> int:
    """Second-largest maximal co-clique size for solids; recorded for
    reporting only, nothing in this package verifies it."""
    return poly_eval((1, 1, 2, 3, 3, 2, 1), q)


def complement_count(d: int, n: int, q: int) -> int:
    """Number of complements of a d-subspace in PG(n,q): q^((d+1)(n-d))."""
    if not (-1 <= d <= n):
        raise ValueError("d outside -1..n")
    return s_count(d, -1, n - d - 1, n, q)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class FormulaEntry:
    name: str
    params: tuple[str, ...]
    anchor: str
    fn: Callable[..., int]  # called as fn(*params, q)


REGISTRY: dict[str, FormulaEntry] = {
    e.name: e
    for e in (
        FormulaEntry("gaussian", ("n", "d"),
                     "[n d]_q, number of d-dimensional subspaces of GF(q)^n",
                     gaussian),
        FormulaEntry("subspace_count", ("l", "k", "d", "n"),
                     "q^((l+1)(d-k)) [n-k-l-1, d-k]_q: d-spaces of PG(n,q) through a "
                     "fixed k-space and skew to a fixed disjoint l-space",
                     s_count),
        FormulaEntry("universe_size", (),
                     "[7 4]_q [4 3]_q, the number of plane-solid flags of PG(6,q)",
                     universe_size_formula),
        FormulaEntry("independence_number", (),
                     "[6 4]_q [4 3]_q + [5 3]_q q^3, the paper's value of the independence "
                     "number alpha for q > 27; at the supported q <= 16, the size of the "
                     "constructed Lambda families, a lower bound on alpha",
                     independence_number_formula),
        FormulaEntry("independence_number_expanded", (),
                     "q^11+2q^10+5q^9+7q^8+10q^7+11q^6+11q^5+9q^4+7q^3+4q^2+2q+1, the "
                     "expanded form of independence_number",
                     independence_number_expanded),
        FormulaEntry("lambda_family_size", ("m",),
                     "s(3,5) s(3) + m q^3: flags with solid in a hyperplane H plus "
                     "flags on m chosen planes of H",
                     lambda_family_size),
        FormulaEntry("ekr_planes_max", (),
                     "s(1,4) = [5 2]_q, the largest pairwise-intersecting family of "
                     "planes of PG(5,q)",
                     ekr_planes_max),
        FormulaEntry("line_meeting_planes_max", ("n",),
                     "s(n-2): the largest family of planes of PG(n,q), n >= 5, "
                     "pairwise meeting in a line",
                     line_meeting_planes_max),
        FormulaEntry("plane_disjoint_solid_meeting_bound", ("xi",),
                     "s(2) s(1,4) xi bounds the flags whose plane misses a fixed "
                     "plane E while their solid meets E, given <= xi flags per solid",
                     plane_disjoint_solid_meeting_bound),
        FormulaEntry("solids_meeting_three_planes_bound", (),
                     "3q^6+6q^5+7q^4+4q^3+2q^2+q+1 bounds the solids through a point "
                     "P2 meeting three planes that pairwise intersect exactly in a "
                     "common point P1, with P2 outside the span of any two",
                     solids_meeting_three_planes_bound),
        FormulaEntry("planes_meeting_two_solids_bound", (),
                     "2q^6+2q^5+3q^4+2q^3+2q^2+q+1 bounds the planes through a point "
                     "P meeting two solids disjoint from P that share at most a line",
                     planes_meeting_two_solids_bound),
        FormulaEntry("planes_meeting_two_solids_exact", ("u",),
                     "(s(3)-s(u))^2 + s(0,1,u+1)(s(1,2,6)-s(1,2,u+1)) + s(0,2,u+1), "
                     "the exact count behind planes_meeting_two_solids_bound",
                     planes_meeting_two_solids_exact),
        FormulaEntry("chromatic_lower", (),
                     "q^4-q^2+2q+1, lower estimate for the chromatic number",
                     chromatic_lower_poly),
        FormulaEntry("chromatic_upper", (),
                     "q^4+q^3+q^2+1, class count of the point-line coloring",
                     chromatic_upper_poly),
        FormulaEntry("chromatic_upper_trivial", (),
                     "s(4) = q^4+q^3+q^2+q+1, class count of the one-point coloring",
                     chromatic_upper_trivial),
        FormulaEntry("type3_independence", (),
                     "s(3,5), the largest co-clique of the solid Kneser graph of PG(6,q)",
                     type3_independence),
        FormulaEntry("type3_second_largest", (),
                     "q^6+2q^5+3q^4+3q^3+2q^2+q+1, second-largest maximal co-clique "
                     "of the solid Kneser graph (recorded, not verified here)",
                     type3_second_largest),
        FormulaEntry("complement_count", ("d", "n"),
                     "q^((d+1)(n-d)), the number of complements of a d-subspace in PG(n,q)",
                     complement_count),
    )
}


def evaluate(name: str, q: int, *params: int) -> int:
    """Evaluate a registry formula; raises KeyError for unknown names and
    ValueError for unsupported q or wrong parameter counts."""
    from .galois import build_field
    build_field(q)
    entry = REGISTRY[name]
    if len(params) != len(entry.params):
        raise ValueError("%s expects parameters %s, got %d values"
                         % (name, list(entry.params), len(params)))
    return entry.fn(*params, q)


def formulas_report(q: int, names: list[str]) -> dict:
    """JSON-ready {name: {params, value, anchor}} for parameter-free names
    and for parametric names written as 'name:p1,p2'; an unknown name or
    a parameter that is no integer raises ValueError naming the entry."""
    out = {}
    for raw in names:
        name, _, tail = raw.partition(":")
        if name not in REGISTRY:
            raise ValueError("unknown formula %r; available formulas: %s"
                             % (name, ", ".join(sorted(REGISTRY))))
        try:
            params = tuple(int(x) for x in tail.split(",")) if tail else ()
        except ValueError:
            raise ValueError("%s: parameters must be integers, got %r"
                             % (raw, tail)) from None
        entry = REGISTRY[name]
        out[raw] = {
            "params": dict(zip(entry.params, params)),
            "value": evaluate(name, q, *params),
            "anchor": entry.anchor,
        }
    return out
