"""Pivoted elimination over the cyclotomic residue ring, as an independent
oracle for exact inertia.

knotrho decides the inertia of a Hermitian residue form from its
characteristic polynomial (Berkowitz, then Descartes' rule of signs).  This
module counts it the other way, by congruence: symmetric elimination with
pivot-scaled Schur complements, which never divide.  Its coefficients grow
exponentially with the size, so it is meant for forms of size up to about
12.  Nothing here calls the engine under test; signs come from
knotrho.cyclotomic.certified_sign.
"""

from knotrho.cyclotomic import certified_sign


def inertia(entries, root):
    """(positive, zero, negative) of the Hermitian form with residue table
    entries at root.

    Pivot: the greatest-magnitude (by certified midpoint) nonzero diagonal
    entry; if the whole diagonal is zero, a 2x2 off-diagonal block step
    contributes (1, 0, 1).  Schur complements are scaled by the pivot to
    stay division-free; the sigma flag un-flips the inertia contributions
    when an accumulated scale is negative.
    """
    p = n = z = 0
    sigma = 1
    active = [list(row) for row in entries]
    while active:
        size = len(active)
        best = None
        for i in range(size):
            e = active[i][i]
            if not e.is_zero:
                s, approx = certified_sign(e, root)
                assert s != 0, "nonzero residue evaluated to zero"
                if best is None or approx > best[0]:
                    best = (approx, i, s)
        if best is not None:
            _, j, s = best
            contribution = sigma * s
            if contribution > 0:
                p += 1
            else:
                n += 1
            sigma = contribution
            piv = active[j][j]
            rest = [k for k in range(size) if k != j]
            active = [
                [piv * active[a][b] - active[a][j] * active[j][b] for b in rest]
                for a in rest
            ]
            continue
        # Whole diagonal is exactly zero.
        pos = next(
            ((i, j) for i in range(size) for j in range(i + 1, size) if not active[i][j].is_zero),
            None,
        )
        if pos is None:
            z += size
            break
        i, j = pos
        p += 1
        n += 1
        h = active[i][j]
        hbar = active[j][i]
        nrm = h * hbar
        rest = [k for k in range(size) if k not in (i, j)]
        active = [
            [
                nrm * active[a][b]
                - h * active[a][i] * active[j][b]
                - hbar * active[a][j] * active[i][b]
                for b in rest
            ]
            for a in rest
        ]
    return p, z, n
