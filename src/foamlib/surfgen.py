"""Random decorated-surface generation for cross-validation tests.

Surfaces are built seam-first so they are always closed and valid: each
new seam adds one fresh boundary circle to each of its two endpoint
facets.  Dots are random elements of the facet's level.  The generator is
driven by a caller-supplied random.Random, so runs are reproducible.
"""

from __future__ import annotations

import random

from .fieldext import FiniteFieldTower, FrobeniusBackend
from .tqft2d import DecoratedSurface, Facet, Seam


def random_surface(
    backend: FrobeniusBackend,
    rng: random.Random,
    max_facets: int = 5,
    max_seams: int = 6,
    levels=None,
) -> DecoratedSurface:
    """Each facet gets genus at most 2, at most 2 dots and at most 4 circles."""
    if levels is None:
        levels = list(range(backend.num_levels))
    n_f = rng.randint(1, max_facets)
    genus = [rng.randint(0, 2) for _ in range(n_f)]
    flevel = [rng.choice(levels) for _ in range(n_f)]
    dots: list[list] = []
    for i in range(n_f):
        dots.append([
            backend.random_element(flevel[i], rng)
            for _ in range(rng.randint(0, 2))
        ])
    boundary: list[list[str]] = [[] for _ in range(n_f)]
    seams = []
    circle_no = 0
    n_s = rng.randint(0, max_seams)
    for _ in range(n_s):
        open_facets = [i for i in range(n_f) if len(boundary[i]) < 4]
        if len(open_facets) == 0:
            break
        a = rng.choice(open_facets)
        b = rng.choice(open_facets)
        if a == b and len(boundary[a]) > 2:
            continue
        ca = f"c{circle_no}"
        circle_no += 1
        cb = f"c{circle_no}"
        circle_no += 1
        boundary[a].append(ca)
        boundary[b].append(cb)
        la, lb = flevel[a], flevel[b]
        end_a = (f"f{a}", ca)
        end_b = (f"f{b}", cb)
        if la == lb:
            sigma = None
            if la > 0 and rng.random() < 0.6:
                if isinstance(backend, FiniteFieldTower):
                    power = rng.randrange(max(backend.dim(la), 1))
                    sigma = backend.frobenius_automorphism(la, power)
                elif getattr(backend, "roots", None) is not None:
                    sigma = backend.automorphism_by_root(
                        rng.randrange(len(backend.roots))
                    )
            if sigma is not None:
                seams.append(Seam("defect", end_a, end_b, sigma))
            else:
                seams.append(Seam("plain", end_a, end_b))
        elif la < lb:
            seams.append(Seam("inclusion", end_a, end_b))
        else:
            seams.append(Seam("inclusion", end_b, end_a))
    facets = tuple(
        Facet(f"f{i}", genus[i], flevel[i], tuple(dots[i]), tuple(boundary[i]))
        for i in range(n_f)
    )
    return DecoratedSurface(backend, facets, tuple(seams))


def random_surface_with_pattern(
    backend: FrobeniusBackend,
    rng: random.Random,
    pattern: str,
) -> DecoratedSurface:
    """A random surface on levels 1 and 2 guaranteed to contain one
    skein-rewrite pattern."""
    low_level, high_level = 1, 2
    s = random_surface(backend, rng, max_facets=3, max_seams=3,
                       levels=[low_level, high_level])
    facets = list(s.facets)
    seams = list(s.seams)
    if pattern in ("remove_f_disk", "remove_k_disk", "push_dot"):
        host_level = high_level if pattern != "remove_k_disk" else low_level
        disk_level = low_level if pattern != "remove_k_disk" else high_level
        host = Facet("host", rng.randint(0, 1), host_level,
                     (backend.random_element(host_level, rng),), ("hx",))
        dots = (
            (backend.random_element(disk_level, rng),)
            if pattern == "push_dot" else ()
        )
        disk = Facet("disk", 0, disk_level, dots, ("dx",))
        lo, hi = (disk, host) if disk_level < host_level else (host, disk)
        seams.append(Seam("inclusion", (lo.id, lo.boundary[-1]),
                          (hi.id, hi.boundary[-1])))
        facets += [host, disk]
    elif pattern == "merge_k_boundaries":
        same = rng.random() < 0.5
        kfac = Facet("kf", rng.randint(0, 1), high_level,
                     (backend.random_element(high_level, rng),), ("k1", "k2"))
        if same:
            ffac = Facet("ff", rng.randint(0, 1), low_level,
                         (backend.random_element(low_level, rng),), ("f1", "f2"))
            facets += [kfac, ffac]
            seams += [
                Seam("inclusion", ("ff", "f1"), ("kf", "k1")),
                Seam("inclusion", ("ff", "f2"), ("kf", "k2")),
            ]
        else:
            fa = Facet("fa", rng.randint(0, 1), low_level, (), ("f1",))
            fb = Facet("fb", rng.randint(0, 1), low_level,
                       (backend.random_element(low_level, rng),), ("f2",))
            facets += [kfac, fa, fb]
            seams += [
                Seam("inclusion", ("fa", "f1"), ("kf", "k1")),
                Seam("inclusion", ("fb", "f2"), ("kf", "k2")),
            ]
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return DecoratedSurface(backend, tuple(facets), tuple(seams))
