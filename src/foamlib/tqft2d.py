"""Decorated and patched closed surfaces, with two exact evaluators.

A surface is given pre-cut: facets are connected surfaces with genus,
an algebra label (a backend level), floating dots (algebra elements) and
named boundary circles; seams glue boundary circles in pairs.  A seam may
join two circles of the same facet (a non-separating curve on a facet of
reduced genus).  Three seam kinds:

  plain      -- same label on both sides, an ordinary tube
  inclusion  -- lower tower level on one side, higher on the other
  defect     -- same label on both sides, crossed by an automorphism;
               the stored source/target endpoints fix the coorientation

evaluate_neck contracts every seam with a dual-basis insertion and
evaluates each closed-up facet through its trace:

  plain                sum_i  x_i | y_i
  defect sigma         sum_i  sigma(y_i) at the source | x_i at the target
  inclusion F < K      sum_i  x_i at the F side | incl(y_i) at the K side
                       (dual bases of F with respect to its trace)

and a facet of genus g whose dots multiply to a contributes
trace(h^g * a), h the handle element of its level.  The defect convention
is pinned by requiring the torus with one sigma-circle to evaluate to
sum_i eps(x_i sigma(y_i)), the trace of sigma.

It glues back what the cut allows before any sum is taken.  A self-seam
folds into its facet as sum_i ins0_i * ins1_i.  A composite facet absorbs
a neighbour h through a seam by the map a dot takes across it: the
identity across a plain seam, sigma or its inverse across a defect and
the inclusion from a lower facet, all ring maps, so it multiplies h's
element in and carries h's other circles over.  The one case that cannot
fold is h on the upper side of an inclusion seam: the map is then the
relative trace, which is not multiplicative, so h is absorbed only as a
cap (that seam its last open circle).  The seams left between composites
go through one state sum over their multi-indices, the same loop that,
run on the unfolded facets, is the tests' oracle.

evaluate_coloring is the independent spectral route for separable tower
backends: a coloring assigns to each facet an embedding of its level into
the splitting level; plain seams force equal colorings, a defect seam
forces color(target) = color(source) composed with sigma, and an
inclusion seam forces the upper coloring to restrict to the lower one.
Each coloring contributes the product over facets of the embedded dot
products (field levels have handle element 1, so genus drops out).

skein_rewrite applies the local relations at an inclusion seam: a dotless
disk on the lower side disappears, one on the upper side leaves the
relative trace of 1 as a dot (the [K:F] rule), a dot moves from the lower
side to the upper, and two circles of one upper facet merge.  Each finds
its pattern and states its result as one _edit: the facets it replaces or
removes, the seam it drops and the seam ends it renames.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from .fieldext import (
    Automorphism,
    FiniteFieldTower,
    FrobeniusBackend,
    RationalNumberField,
    TableAlgebra,
    make_backend,
)


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class Facet:
    id: str
    genus: int
    level: int
    dots: tuple = ()
    boundary: tuple[str, ...] = ()


@dataclass(frozen=True)
class Seam:
    """kind in {plain, inclusion, defect}.

    For inclusion, end0 is the lower-level side and end1 the upper; for
    defect, end0 is the source of the coorientation and end1 the target.
    """

    kind: str
    end0: tuple[str, str]
    end1: tuple[str, str]
    sigma: Automorphism | None = None


@dataclass(frozen=True)
class DecoratedSurface:
    backend: FrobeniusBackend
    facets: tuple[Facet, ...]
    seams: tuple[Seam, ...]

    def facet(self, fid: str) -> Facet:
        for f in self.facets:
            if f.id == fid:
                return f
        raise SurfaceError(f"no facet {fid!r}")


# ---------------------------------------------------------------------------
# Validation


def validate(s: DecoratedSurface) -> dict:
    errors = []
    seen_circles = {}
    ids = set()
    for f in s.facets:
        if f.id in ids:
            errors.append(f"duplicate facet id {f.id!r}")
        ids.add(f.id)
        if f.genus < 0:
            errors.append(f"facet {f.id}: negative genus")
        for c in f.boundary:
            key = (f.id, c)
            if key in seen_circles:
                errors.append(f"facet {f.id}: duplicate circle {c!r}")
            seen_circles[key] = 0

    for seam in s.seams:
        for end in (seam.end0, seam.end1):
            if end not in seen_circles:
                errors.append(f"seam endpoint {end} references no boundary circle")
            else:
                seen_circles[end] += 1
        if seam.end0 == seam.end1:
            errors.append(f"seam glues a circle {seam.end0} to itself")
        try:
            lv0 = s.facet(seam.end0[0]).level
            lv1 = s.facet(seam.end1[0]).level
        except SurfaceError as exc:
            errors.append(str(exc))
            continue
        if seam.kind == "plain":
            if lv0 != lv1:
                errors.append(f"plain seam joins different labels {lv0} != {lv1}")
        elif seam.kind == "defect":
            if lv0 != lv1:
                errors.append(f"defect seam joins different labels {lv0} != {lv1}")
            if seam.sigma is None or seam.sigma.level != lv0:
                errors.append("defect seam needs an automorphism of its own level")
            elif seam.sigma.backend is not s.backend:
                errors.append("defect automorphism belongs to a different backend")
        elif seam.kind == "inclusion":
            if not lv0 < lv1:
                errors.append(
                    f"inclusion seam needs lower level on end0: got {lv0} !< {lv1}"
                )
        else:
            errors.append(f"unknown seam kind {seam.kind!r}")

    for (fid, c), count in seen_circles.items():
        if count != 1:
            errors.append(
                f"boundary circle {c!r} of facet {fid} lies on {count} seams (want 1)"
            )

    # connected components and Euler characteristics
    parent = {f.id: f.id for f in s.facets}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for seam in s.seams:
        a, b = seam.end0[0], seam.end1[0]
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    comps: dict[str, int] = {}
    for f in s.facets:
        root = find(f.id)
        comps[root] = comps.get(root, 0) + (2 - 2 * f.genus - len(f.boundary))
    for root, chi in sorted(comps.items()):
        if chi % 2 != 0:
            errors.append(f"component {root}: odd Euler characteristic {chi}")

    return {
        "ok": not errors,
        "errors": errors,
        "euler_characteristics": [chi for _, chi in sorted(comps.items())],
    }


def require_valid(s: DecoratedSurface) -> None:
    report = validate(s)
    if not report["ok"]:
        raise SurfaceError("; ".join(report["errors"]))


# ---------------------------------------------------------------------------
# Neck-cutting evaluator


def evaluate_neck(s: DecoratedSurface, dual_pairs=None):
    """Fold the seams the gluing rules allow, then sum over the rest.

    Returns a ground-field element.  Each facet is cut into a piece: its
    element (dots and genus handles) and one insertion list per boundary
    circle.  A self-seam folds into the element as sum_i ins0_i * ins1_i.
    Then each piece grows into a composite by absorbing a neighbour h
    through a seam, with the map psi that a dot takes from h into the
    composite: the seam's own map to the facet at its other end (the
    identity across a plain seam; sigma from a defect's target and its
    inverse from the source; the inclusion from the lower side of an
    inclusion seam), followed by the map that carried that facet's circle
    into the composite.

    psi(h's element) multiplies into the composite and psi carries h's
    other insertion lists over, so a seam with both ends in the composite
    folds like a self-seam.  Apart from a cap, psi is a ring map, so the
    product of h's insertions is carried factor by factor.  When h is the
    upper side of an inclusion seam, psi is the relative trace, and h is
    absorbed only when that seam is its last open end (a cap).  Every
    facet is tried as the start, the largest composite is kept, and the
    rest grow the same way.  Seams between composites are left to the
    state sum _state_sum, which tests also run on the unfolded pieces of
    _cut as the oracle.

    dual_pairs optionally overrides the dual pair used per level
    ({level: DualBasisPair}) so basis-independence can be tested.  Only
    the insertion lists read it: the ones a self-seam folds and the ones
    the state sum contracts.  Absorbing a neighbour reads no dual pair,
    and handle elements are independent of the pair.
    """
    be, pieces = _cut(s, dual_pairs)
    return _state_sum(be, _fold(be, pieces, s))


def _cut(s: DecoratedSurface, dual_pairs=None):
    """The backend and one piece per facet.

    A piece is (level, element, ends): the element is the product of the
    facet's dots and genus handles, and each end is (seam index,
    insertion list) for one of its boundary circles.
    """
    require_valid(s)
    be = s.backend
    ins = [_seam_insertions(s, seam, be, dual_pairs) for seam in s.seams]
    circle_seam: dict[tuple[str, str], tuple[int, int]] = {}
    for i, seam in enumerate(s.seams):
        circle_seam[seam.end0] = (i, 0)
        circle_seam[seam.end1] = (i, 1)
    pieces = []
    for f in s.facets:
        elem = be.one(f.level)
        for d in f.dots:
            elem = be.mul(f.level, elem, d)
        if f.genus:
            h = be.handle_element(f.level)
            for _ in range(f.genus):
                elem = be.mul(f.level, elem, h)
        ends = [(i, ins[i][side])
                for i, side in (circle_seam[(f.id, c)] for c in f.boundary)]
        pieces.append((f.level, elem, ends))
    return be, pieces


def _state_sum(be, pieces):
    """Sum over the multi-indices of the seams between pieces.

    Each piece tabulates the trace of its element times one insertion per
    end over its local index tuples; an assignment of one index per seam
    contributes the product of the pieces' table entries.
    """
    ground = be.ground
    dims = {}
    tables = []
    for level, elem, ends in pieces:
        table = {}
        for combo in itertools.product(*[range(len(lst)) for _, lst in ends]):
            acc = elem
            for (_, lst), idx in zip(ends, combo):
                acc = be.mul(level, acc, lst[idx])
            table[combo] = be.trace_to_ground(level, acc)
        tables.append((table, [i for i, _ in ends]))
        for i, lst in ends:
            dims[i] = len(lst)
    seams = sorted(dims)
    pos = {i: k for k, i in enumerate(seams)}
    tables = [(table, [pos[i] for i in here]) for table, here in tables]

    total = ground.zero
    for assignment in itertools.product(*[range(dims[i]) for i in seams]):
        prod = ground.one
        for table, here in tables:
            v = table[tuple(assignment[k] for k in here)]
            if ground.is_zero(v):
                break
            prod = ground.mul(prod, v)
        else:
            total = ground.add(total, prod)
    return total


def _fold(be, pieces, s: DecoratedSurface):
    """Fold self-seams, then grow composites; returns the pieces left."""
    folded = []
    for level, elem, ends in pieces:
        open_ends: dict = {}
        for i, lst in ends:
            elem = _join(be, level, elem, open_ends, i, lst)
        folded.append((level, elem, open_ends))

    index = {f.id: k for k, f in enumerate(s.facets)}
    sides = [(index[seam.end0[0]], index[seam.end1[0]]) for seam in s.seams]

    def absorbable(h, i):
        # psi is a relative trace when h is the upper side of an inclusion
        return (s.seams[i].kind != "inclusion" or sides[i][1] != h
                or len(folded[h][2]) == 1)

    def closure(start, left):
        left = left - {start}
        order = []
        todo = [start]
        while todo:
            m = todo.pop()
            for i in folded[m][2]:
                lo, hi = sides[i]
                h = hi if lo == m else lo
                if h in left and absorbable(h, i):
                    left.remove(h)
                    order.append((h, i))
                    todo.append(h)
        return order

    out = []
    left = set(range(len(folded)))
    while left:
        start, order = max(((k, closure(k, left)) for k in sorted(left)),
                           key=lambda plan: len(plan[1]))
        out.append(_absorb(be, folded, start, order, s.seams, sides))
        left -= {start, *(h for h, _ in order)}
    return out


def _absorb(be, folded, start, order, seams, sides):
    """The composite of folded[start] and the pieces absorbed in order.

    h crosses seam i by its _seam_map, then by the map carried[i] that
    brought the composite's end of i in (none for the start's own ends);
    h's other ends are carried in by that composite.
    """
    level, elem, ends = folded[start]
    open_ends = dict(ends)
    carried = {}
    for h, i in order:
        _, h_elem, h_ends = folded[h]
        del open_ends[i]
        lo, hi = sides[i]
        psi = _then(_seam_map(be, seams[i], h == hi, folded[lo][0], folded[hi][0]),
                    carried.pop(i, None))
        elem = be.mul(level, elem, psi(h_elem) if psi else h_elem)
        for j, lst in h_ends.items():
            if j != i:
                if psi:
                    lst = [psi(z) for z in lst]
                    carried[j] = psi
                elem = _join(be, level, elem, open_ends, j, lst)
    return level, elem, list(open_ends.items())


def _seam_map(be, seam, upper, lo_level, hi_level):
    """The map a dot takes across seam from end1 (if upper, else end0) to
    the other end; None for the identity.

    It is the contraction sum_i eps(z * I_b[i]) * I_a[i] of the seam's
    insertion lists, worked out: a dual pair contracts to the identity,
    sigma preserves eps, and eps_K = eps_F o tr_K/F.
    """
    if seam.kind == "plain":
        return None
    if seam.kind == "defect":
        sigma = seam.sigma if upper else seam.sigma.inverse()
        return None if sigma.is_identity() else sigma
    if upper:
        return lambda z: be.relative_trace(z, hi_level, lo_level)
    return lambda z: be.include(z, lo_level, hi_level)


def _then(first, then):
    """then after first, where None is the identity."""
    if first is None or then is None:
        return first or then
    return lambda z: then(first(z))


def _join(be, level, elem, open_ends, i, lst):
    """Open seam i with lst, or fold it with its other end already open."""
    if i not in open_ends:
        open_ends[i] = lst
        return elem
    acc = be.zero(level)
    for a, b in zip(open_ends.pop(i), lst):
        acc = be.add(level, acc, be.mul(level, a, b))
    return be.mul(level, elem, acc)


def _seam_insertions(s, seam, be, dual_pairs):
    """The insertion lists at end0 and end1; validate fixed the kind.

    dual_pairs ({level: DualBasisPair}) overrides the backend's dual pair.
    """
    level = s.facet(seam.end0[0]).level
    pair = (dual_pairs or {}).get(level) or be.dual_bases(level)
    if seam.kind == "plain":
        return list(pair.xs), list(pair.ys)
    if seam.kind == "defect":
        return [seam.sigma(y) for y in pair.ys], list(pair.xs)
    hi = s.facet(seam.end1[0]).level
    return list(pair.xs), [be.include(y, level, hi) for y in pair.ys]


# ---------------------------------------------------------------------------
# Coloring evaluator


def require_coloring_backend(be) -> None:
    """Only separable tower and number-field backends have root colorings."""
    if not isinstance(be, (FiniteFieldTower, RationalNumberField)):
        raise SurfaceError(
            "coloring evaluation needs a separable field backend "
            f"(got {be.kind})"
        )


def evaluate_coloring(s: DecoratedSurface):
    """Sum over root colorings; separable tower/number-field backends only."""
    require_valid(s)
    be = s.backend
    require_coloring_backend(be)
    omega = be.splitting_field()

    embeddings = {lv: be.embeddings(lv) for lv in {f.level for f in s.facets}}
    index_of = {f.id: i for i, f in enumerate(s.facets)}

    # per position, the seam checks color(a), color(b) -> bool that become
    # decidable once that position is colored
    checks: list[list] = [[] for _ in s.facets]
    for seam in s.seams:
        fa, fb = index_of[seam.end0[0]], index_of[seam.end1[0]]
        if seam.kind == "plain":
            chk = lambda ca, cb: ca == cb  # noqa: E731
        elif seam.kind == "defect":
            t = be.automorphism_embedding_action(seam.sigma)
            chk = lambda ca, cb, t=t: cb == t[ca]  # noqa: E731
        else:
            # the upper coloring restricts to the lower one
            lo, hi = s.facets[fa].level, s.facets[fb].level
            lo_roots = be.embedding_roots(lo)
            glo = be.include(be.generator(lo), lo, hi)
            t = [lo_roots.index(phi(glo)) for phi in embeddings[hi]]
            chk = lambda ca, cb, t=t: t[cb] == ca  # noqa: E731
        checks[max(fa, fb)].append((fa, fb, chk))

    # weights[pos][c]: facet pos's dot product under its c-th embedding
    weights = []
    for f in s.facets:
        prod = be.one(f.level)
        for d in f.dots:
            prod = be.mul(f.level, prod, d)
        weights.append([phi(prod) for phi in embeddings[f.level]])

    total = omega.zero
    assignment = [0] * len(s.facets)

    def recurse(pos, partial):
        nonlocal total
        if pos == len(s.facets):
            total = omega.add(total, partial)
            return
        for c, weight in enumerate(weights[pos]):
            assignment[pos] = c
            if all(chk(assignment[fa], assignment[fb])
                   for fa, fb, chk in checks[pos]):
                recurse(pos + 1, omega.mul(partial, weight))

    recurse(0, omega.one)
    try:
        return be._pull_back(total, be.top, 0)
    except ValueError:
        raise SurfaceError(
            "coloring evaluation produced a value outside the ground field"
        ) from None


# ---------------------------------------------------------------------------
# Skein rewrites


def _edit(s: DecoratedSurface, facets: dict, drop_seam=None, rename=None):
    """s with each facet in facets replaced by id (None removes it), the
    seam at index drop_seam removed and seam ends renamed through rename;
    a seam with no renamed end is reused as it is."""
    rename = rename or {}
    seams = []
    for i, se in enumerate(s.seams):
        if i == drop_seam:
            continue
        if se.end0 in rename or se.end1 in rename:
            se = replace(se, end0=rename.get(se.end0, se.end0),
                         end1=rename.get(se.end1, se.end1))
        seams.append(se)
    kept = (facets.get(f.id, f) for f in s.facets)
    return DecoratedSurface(s.backend, tuple(f for f in kept if f is not None),
                            tuple(seams))


def _without(f: Facet, end) -> Facet:
    """f without the boundary circle at end."""
    return replace(f, boundary=tuple(c for c in f.boundary if (f.id, c) != end))


def _remove_disk(s: DecoratedSurface, lower_side: bool) -> DecoratedSurface:
    """Remove a dotless disk capping an inclusion seam.

    A dotless lower-level disk disappears without a trace; a dotless
    upper-level disk leaves the relative trace of 1 as a dot on the lower
    facet (the [K:F]-multiplication rule).
    """
    for i, seam in enumerate(s.seams):
        if seam.kind != "inclusion":
            continue
        end, other = (seam.end0, seam.end1) if lower_side else (seam.end1, seam.end0)
        disk = s.facet(end[0])
        if disk.genus or disk.dots or len(disk.boundary) != 1 or end[0] == other[0]:
            continue
        host = _without(s.facet(other[0]), other)
        if not lower_side:
            be = s.backend
            trace = be.relative_trace(be.one(disk.level), disk.level, host.level)
            host = replace(host, dots=host.dots + (trace,))
        return _edit(s, {disk.id: None, host.id: host}, drop_seam=i)
    raise SurfaceError("no matching disk pattern for rewrite")


def _push_dot(s: DecoratedSurface) -> DecoratedSurface:
    """Move one dot from the lower side of an inclusion seam to the upper."""
    for seam in s.seams:
        if seam.kind != "inclusion":
            continue
        lo, hi = s.facet(seam.end0[0]), s.facet(seam.end1[0])
        if lo.id != hi.id and lo.dots:
            moved = s.backend.include(lo.dots[0], lo.level, hi.level)
            return _edit(s, {lo.id: replace(lo, dots=lo.dots[1:]),
                             hi.id: replace(hi, dots=hi.dots + (moved,))})
    raise SurfaceError("no dotted lower facet on an inclusion seam")


def _merge_k_boundaries(s: DecoratedSurface) -> DecoratedSurface:
    """Merge two boundary circles of one upper-level facet into one.

    If the two inclusion seams lead to the same lower facet, that facet
    gains a handle; if they lead to two different lower facets, the facets
    merge (genus adds).  The second seam disappears.
    """
    for i, s1 in enumerate(s.seams):
        if s1.kind != "inclusion":
            continue
        for j in range(i + 1, len(s.seams)):
            s2 = s.seams[j]
            if s2.kind != "inclusion" or s1.end1[0] != s2.end1[0]:
                continue
            kfac, f1, f2 = (s.facet(end[0]) for end in (s1.end1, s1.end0, s2.end0))
            if kfac.id in (f1.id, f2.id):
                continue
            edits = {kfac.id: _without(kfac, s2.end1)}
            if f1.id == f2.id:
                edits[f1.id] = replace(_without(f1, s2.end0), genus=f1.genus + 1)
                return _edit(s, edits, drop_seam=j)
            # merge f2 into f1; circles of f2 get re-homed under f1's id
            boundary, rename = list(f1.boundary), {}
            for c in _without(f2, s2.end0).boundary:
                new = c
                while new in boundary:
                    new += "_m"
                rename[(f2.id, c)] = (f1.id, new)
                boundary.append(new)
            edits[f1.id] = replace(f1, genus=f1.genus + f2.genus,
                                   dots=f1.dots + f2.dots, boundary=tuple(boundary))
            edits[f2.id] = None
            return _edit(s, edits, drop_seam=j, rename=rename)
    raise SurfaceError("no upper facet with two inclusion circles")


_REWRITES = {
    "remove_f_disk": lambda s: _remove_disk(s, lower_side=True),
    "remove_k_disk": lambda s: _remove_disk(s, lower_side=False),
    "push_dot": _push_dot,
    "merge_k_boundaries": _merge_k_boundaries,
}
REWRITE_RELATIONS = tuple(_REWRITES)


def skein_rewrite(relation: str, s: DecoratedSurface) -> DecoratedSurface:
    """Apply one local rewrite; raises SurfaceError if the pattern is absent."""
    if relation not in REWRITE_RELATIONS:
        raise SurfaceError(f"unknown relation {relation!r}; have {REWRITE_RELATIONS}")
    return _REWRITES[relation](s)


def skein_rewrite_check(relation: str, s: DecoratedSurface) -> bool:
    """Rewrite and compare evaluate_neck on both sides."""
    t = skein_rewrite(relation, s)
    return evaluate_neck(s) == evaluate_neck(t)


# ---------------------------------------------------------------------------
# Builders


def torus_with_defect(backend, level, sigma: Automorphism) -> DecoratedSurface:
    """Torus cut along one non-separating sigma-circle."""
    level = backend.level_index(level)
    f = Facet("f", 0, level, (), ("c1", "c2"))
    seam = Seam("defect", ("f", "c1"), ("f", "c2"), sigma)
    return DecoratedSurface(backend, (f,), (seam,))


def plain_torus(backend, level, dots=()) -> DecoratedSurface:
    level = backend.level_index(level)
    f = Facet("f", 1, level, tuple(dots), ())
    return DecoratedSurface(backend, (f,), ())


def _two_disks(backend, kind, ids, levels, a, b, sigma=None) -> DecoratedSurface:
    """Disks ids[0] (dot a) and ids[1] (dot b), glued along their circles "c"
    by one seam of the given kind from ids[0] to ids[1]."""
    disks = tuple(Facet(fid, 0, level, () if dot is None else (dot,), ("c",))
                  for fid, level, dot in zip(ids, levels, (a, b)))
    seam = Seam(kind, (ids[0], "c"), (ids[1], "c"), sigma)
    return DecoratedSurface(backend, disks, (seam,))


def seamed_sphere(backend, low_level, high_level, a=None, b=None) -> DecoratedSurface:
    """S^2(a, b): lower-level disk with dot a, upper-level disk with dot b."""
    levels = (backend.level_index(low_level), backend.level_index(high_level))
    return _two_disks(backend, "inclusion", ("lo", "hi"), levels, a, b)


def sphere_with_defect(backend, level, sigma, a=None, b=None) -> DecoratedSurface:
    """Sphere with one sigma-circle; dot a in the source disk, b in the target."""
    level = backend.level_index(level)
    return _two_disks(backend, "defect", ("src", "tgt"), (level, level), a, b, sigma)


def genus2_three_defects(backend, level, s1, s2, s3) -> DecoratedSurface:
    """Two three-holed spheres joined by three defect tubes (genus 2)."""
    level = backend.level_index(level)
    f1 = Facet("p1", 0, level, (), ("a1", "a2", "a3"))
    f2 = Facet("p2", 0, level, (), ("b1", "b2", "b3"))
    seams = (
        Seam("defect", ("p1", "a1"), ("p2", "b1"), s1),
        Seam("defect", ("p1", "a2"), ("p2", "b2"), s2),
        Seam("defect", ("p1", "a3"), ("p2", "b3"), s3),
    )
    return DecoratedSurface(backend, (f1, f2), seams)


def disjoint_union(s1: DecoratedSurface, s2: DecoratedSurface) -> DecoratedSurface:
    if s1.backend is not s2.backend:
        raise SurfaceError("disjoint union needs a shared backend")
    facets = list(s1.facets)
    taken = {f.id for f in facets}
    rename = {}
    for f in s2.facets:
        nid = f.id
        while nid in taken:
            nid += "_b"
        taken.add(nid)
        rename[f.id] = nid
        facets.append(replace(f, id=nid))
    seams = (*s1.seams, *(replace(se, end0=(rename[se.end0[0]], se.end0[1]),
                                  end1=(rename[se.end1[0]], se.end1[1]))
                          for se in s2.seams))
    return DecoratedSurface(s1.backend, tuple(facets), seams)


# ---------------------------------------------------------------------------
# JSON interface


def parse_sigma(backend, spec, level: int) -> Automorphism:
    """Automorphism of the given level from its JSON form: "id", "frob^k",
    {"root": "-x"}, {"matrix": [[...]]} -- the last three kind-dependent."""
    if isinstance(spec, str):
        if spec == "id":
            return backend.identity_automorphism(level)
        if spec.startswith("frob^"):
            if not isinstance(backend, FiniteFieldTower):
                raise SurfaceError("frob^k needs a finite tower backend")
            return backend.frobenius_automorphism(level, int(spec[5:]))
        raise SurfaceError(f"cannot parse automorphism {spec!r}")
    if isinstance(spec, dict):
        if "root" in spec:
            if not isinstance(backend, RationalNumberField):
                raise SurfaceError("{'root': ...} needs a number field backend")
            if not isinstance(spec["root"], str):
                raise SurfaceError(f"a root must be a polynomial string, got {spec['root']!r}")
            backend._need_roots()
            img = backend.parse_element(1, spec["root"])
            if img not in backend.roots:
                raise SurfaceError(f"{spec['root']!r} is not one of the supplied roots")
            return backend.automorphism_by_root(backend.roots.index(img))
        if "matrix" in spec:
            if not isinstance(backend, TableAlgebra):
                raise SurfaceError("{'matrix': ...} needs a table backend")
            return backend.matrix_automorphism(spec["matrix"])
    raise SurfaceError(f"cannot parse automorphism {spec!r}")


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise SurfaceError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def _endpoint(value, what: str) -> tuple[str, str]:
    """A seam end [facet id, circle name]."""
    end = _strings(value, what)
    if len(end) != 2:
        raise SurfaceError(f"{what} must be a [facet id, circle name] pair, got {value!r}")
    return end


def surface_from_json(doc, backend: FrobeniusBackend | None = None) -> DecoratedSurface:
    """Build a surface from the JSON schema.

    {"backend": {...}?, "facets": [{"id", "genus", "label", "dots", "boundary"}],
     "seams": [{"kind": "plain", "ends": [[f,c],[f,c]]}
              | {"kind": "inclusion", "lower": [f,c], "upper": [f,c]}
              | {"kind": "defect", "sigma": ..., "source": [f,c], "target": [f,c]}]}
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise SurfaceError("a surface must be a JSON object")
    for key in ("facets", "seams"):
        if not isinstance(doc.get(key), list):
            raise SurfaceError(f"a surface needs a list under {key!r}")
    if backend is None:
        if "backend" not in doc:
            raise SurfaceError("no backend given (inline or as argument)")
        backend = make_backend(doc["backend"])
    facets = []
    for fd in doc["facets"]:
        if not isinstance(fd, dict) or not isinstance(fd.get("id"), str):
            raise SurfaceError(f"a facet must be an object with a string 'id', got {fd!r}")
        level = backend.level_index(fd.get("label", fd.get("level", 0)))
        dots = tuple(backend.parse_element(level, d)
                     for d in _strings(fd.get("dots", ()), f"facet {fd['id']}: dots"))
        genus = fd.get("genus", 0)
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
            raise SurfaceError(
                f"facet {fd['id']}: genus must be a nonnegative integer, got {genus!r}")
        facets.append(Facet(fd["id"], genus, level, dots, _strings(
            fd.get("boundary", ()), f"facet {fd['id']}: boundary")))
    level_of = {f.id: f.level for f in facets}
    seams = []
    for sd in doc["seams"]:
        if not isinstance(sd, dict):
            raise SurfaceError(f"a seam must be an object, got {sd!r}")
        kind = sd.get("kind")
        if kind == "plain":
            ends = sd.get("ends")
            if not isinstance(ends, (list, tuple)) or len(ends) != 2:
                raise SurfaceError(f"a plain seam needs two 'ends', got {ends!r}")
            seams.append(Seam("plain", _endpoint(ends[0], "a plain seam end"),
                              _endpoint(ends[1], "a plain seam end")))
        elif kind == "inclusion":
            seams.append(Seam("inclusion", _endpoint(sd.get("lower"), "'lower'"),
                              _endpoint(sd.get("upper"), "'upper'")))
        elif kind == "defect":
            source = _endpoint(sd.get("source"), "'source'")
            target = _endpoint(sd.get("target"), "'target'")
            if source[0] not in level_of:
                raise SurfaceError(f"defect source {list(source)} names no facet")
            sig = parse_sigma(backend, sd.get("sigma"), level_of[source[0]])
            seams.append(Seam("defect", source, target, sig))
        else:
            raise SurfaceError(
                f"unknown seam kind {kind!r}; trivalent network vertices and "
                "other singularities are outside this model"
            )
    out = DecoratedSurface(backend, tuple(facets), tuple(seams))
    require_valid(out)
    return out
