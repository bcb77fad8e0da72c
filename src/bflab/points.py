"""Points, local points and multiplicities.

A point of A^P is a conjugacy class of primitive idempotents of the
P-fixed subalgebra; it is local when its Brauer image at P survives.
The interior algebra owns each A^P (`fixed_subalgebra`; for a block
B = kG.b, the corner b.(kG)^P of the orbit-counted (kG)^P, so points of
B^P take no product in B) and each Brauer quotient A(P) (`brauer_at`),
and holds two caches of this module: the
points of each A^P, locality flagged, and the primitive decompositions
of idempotents inside each A^P, keyed by (P, idempotent).  The
decomposition of 1 in A^P, whose pieces the points group, is one of
them.  Primitivity comes from the Fitting split of
`idempotents.primitive_decomposition`; the radical chain answers only
`idempotents.is_primitive` and the tests.
"""

from dataclasses import dataclass

import numpy as np

from .groups import Subgroup
from .idempotents import are_associate, primitive_decomposition
# a module binding that perfbench/tests/test_tracer.py patches by name
from .radical import radical_rows  # noqa: F401


@dataclass
class Point:
    """A point of A^P: class of primitive idempotents, plus locality."""
    subgroup: Subgroup
    index: int
    rep: np.ndarray
    multiplicity: int
    local: bool

    def __repr__(self):
        tag = "local " if self.local else ""
        return (f"Point({tag}|P|={self.subgroup.order}, "
                f"#{self.index}, m={self.multiplicity})")


def unit_decomposition(ia, P, rng):
    """Fixed primitive decomposition of 1 in A^P (A-coordinates), cached."""
    return refine_idempotent(ia, P, ia.A.unit, rng)


def _associate_in_fixed(ia, P, x, y):
    ctx = ia.fixed_subalgebra(P)
    return are_associate(ctx, ctx.from_parent(x), ctx.from_parent(y))


def points(ia, P, rng):
    """All points of A^P from the cached decomposition, locals flagged."""
    c = ia._points_cache["points"]
    if P.key in c:
        return c[P.key]
    parts = unit_decomposition(ia, P, rng)
    classes = []
    for x in parts:
        for cls in classes:
            if _associate_in_fixed(ia, P, cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    out = []
    for idx, cls in enumerate(classes):
        out.append(Point(subgroup=P, index=idx, rep=cls[0],
                         multiplicity=len(cls),
                         local=bool(ia.brauer_at(P).project(cls[0]).any())))
    c[P.key] = out
    return out


def local_points(ia, P, rng):
    return [pt for pt in points(ia, P, rng) if pt.local]


def point_of(ia, P, idem, rng):
    """The point of A^P containing the primitive idempotent idem."""
    for pt in points(ia, P, rng):
        if _associate_in_fixed(ia, P, pt.rep, idem):
            return pt
    raise ValueError("idempotent matches no point (is it primitive in A^P?)")


def refine_idempotent(ia, R, idem, rng):
    """Cached primitive decomposition of idem inside A^R."""
    c = ia._points_cache["decomp"]
    key = (R.key, np.asarray(idem).tobytes())
    if key not in c:
        ctx = ia.fixed_subalgebra(R)
        parts = primitive_decomposition(ctx, ctx.from_parent(idem), rng)
        c[key] = [ctx.to_parent(v) for v in parts]
    return c[key]


def point_multiplicity(ia, P, pt, idem, rng):
    """Members of the point pt of A^P in a primitive decomposition of the
    idempotent idem inside A^P."""
    return sum(1 for x in refine_idempotent(ia, P, idem, rng)
               if _associate_in_fixed(ia, P, x, pt.rep))


def relative_multiplicity(ia, Rp, pt_prime, R, pt, rng):
    """m(R'_eps', R_eps): members of eps' in a decomposition of e in eps."""
    if not Rp.key <= R.key:
        raise ValueError("relative multiplicity needs R' <= R")
    return point_multiplicity(ia, Rp, pt_prime, pt.rep, rng)


def conjugate_point(ia, P, pt, g, rng):
    """^g(P_pt) as a (subgroup, Point) pair; g from the interior group."""
    Pg = P.conjugate(g)
    rep_g = ia.act(g, g, pt.rep)
    return Pg, point_of(ia, Pg, rep_g, rng)
