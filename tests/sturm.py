"""Sturm's theorem as an independent oracle for root isolation.

Exact counts of the distinct real roots of an integer polynomial, and
enclosures of its roots in [-2, 2] by Sturm bisection on the dyadic grid
that knotrho.alexander uses, whose unit is 2^-BITS.  Polynomials are
ascending lists of integers.  Nothing here calls the root isolation
under test.
"""

import math

from knotrho import alexander
from knotrho.cyclotomic import _poly_divexact

BITS = alexander._ROOT_BITS
UNIT = 1 << BITS


def sign_at(p, num):
    """Sign of p(num / 2^BITS), by Horner on p(x) 2^(BITS deg p)."""
    value = 0
    for i, c in enumerate(reversed(p)):
        value = value * num + (c << BITS * i)
    return (value > 0) - (value < 0)


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive(p):
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def _prem(u, v):
    """lc(v)^(deg u - deg v + 1) u mod v."""
    u = list(u)
    dv = len(v) - 1
    for i in range(len(u) - 1, dv - 1, -1):
        top = u[i]
        u = [v[-1] * c for c in u]
        for j, c in enumerate(v):
            u[i - dv + j] -= top * c
    return _trim(u[:dv] or [0])


def sturm_chain(p):
    """p, p', then each remainder made primitive and signed as the
    rational Sturm remainder; it ends at a multiple of gcd(p, p')."""
    chain = [p, [i * c for i, c in enumerate(p)][1:] or [0]]
    while len(chain[-1]) > 1:
        u, v = chain[-2], chain[-1]
        r = _prem(u, v)
        if r == [0]:
            break
        flip = v[-1] < 0 and (len(u) - len(v)) % 2 == 0
        chain.append(_primitive(r if flip else [-c for c in r]))
    return chain


def squarefree(p):
    """(q, Sturm chain of q) for the squarefree part q of p."""
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        p = _poly_divexact(_primitive(p), _primitive(chain[-1]))
        chain = sturm_chain(p)
    return p, chain


def variations(chain, num):
    """Sign changes along the chain at num / 2^BITS, zeros dropped."""
    signs = [s for s in (sign_at(p, num) for p in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count(chain, lo, hi):
    """Distinct roots in (lo, hi] of the squarefree polynomial that heads
    the chain, for ends in units of 2^-BITS."""
    return variations(chain, lo) - variations(chain, hi)


def roots_in(q, chain, lo, hi):
    """Distinct roots of the squarefree q in the closed [lo, hi]."""
    return (count(chain, lo, hi) if lo < hi else 0) + (sign_at(q, lo) == 0)


def bisection(q, chain):
    """Enclosures (lo, hi) of the distinct roots of the squarefree q in
    [-2, 2]: every interval (lo, hi] is split at (lo + hi) // 2 until it
    holds one root, which sign bisection shrinks to unit width, or to a
    point at a dyadic root; a unit interval that holds several stays one
    enclosure."""
    found = [(-2 * UNIT, -2 * UNIT)] if sign_at(q, -2 * UNIT) == 0 else []
    todo = [(-2 * UNIT, 2 * UNIT)]
    while todo:
        lo, hi = todo.pop()
        k = count(chain, lo, hi)
        if k == 0:
            continue
        s_lo = sign_at(q, lo)
        if k == 1 and s_lo:
            if sign_at(q, hi) == 0:
                found.append((hi, hi))
                continue
            while hi - lo > 1:
                mid = (lo + hi) // 2
                s = sign_at(q, mid)
                if s == 0:
                    lo = hi = mid
                elif s == s_lo:
                    lo = mid
                else:
                    hi = mid
            found.append((lo, hi))
        elif hi - lo == 1:
            found.append((lo, hi))
        else:
            mid = (lo + hi) // 2
            todo += [(lo, mid), (mid, hi)]
    return found


def enclosures(a):
    """Sturm bisection's enclosures of the roots of Q for the knot matrix
    a, as _root_arcs reports them: floats, descending."""
    q, chain = squarefree(alexander._delta_q(alexander.alexander_polynomial(a), a.size))
    if len(q) == 1:
        return ()
    return tuple(sorted(((lo / UNIT, hi / UNIT) for lo, hi in bisection(q, chain)), reverse=True))
