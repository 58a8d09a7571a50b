"""Workload inputs, built by the benchmark from plain doubled spins.

Nothing here imports the program: admissibility, parity, tetrahedral images
and summation-term counts are recomputed from the defining conditions, so
the inputs handed to the program do not depend on the code under test.
A sextuple is a tuple of six doubled spins (2*j1, 2*j2, 2*j3, 2*J1, 2*J2,
2*J3).  The seed only permutes the order in which a pass visits its inputs,
so every seed does the same work.
"""

from __future__ import annotations

import itertools
import random

SU2_MAX_TWICE = 8  # SU(2) grid: spins <= 4
OSP_MAX_TWICE = 6  # OSP(1|2) grid: spins <= 3
LARGE_K = (
    ("su2", (2, 2, 2, 2, 2, 2), 1001),
    ("super", (2, 2, 2, 2, 2, 2), 1001),
    ("super", (1, 1, 1, 1, 1, 1), 2001),
    ("super", (2, 3, 3, 3, 3, 2), 1001),
)
SCAN_K = (21, 301, 2)  # --k-from, --k-to, --k-step
SCAN_SEXTUPLES = (
    ("su2", (2, 2, 2, 2, 2, 2)),
    ("super", (1, 1, 1, 1, 1, 1)),
    ("super", (2, 3, 3, 3, 3, 2)),
)
ASYM_K_ODD = 101
ASYM_K_EVEN = 100


# spin slots of the four triads (j1 j2 j3), (J1 j2 J3), (J1 J2 j3), (j1 J2 J3)
FACE_SLOTS = ((0, 1, 2), (3, 1, 5), (3, 4, 2), (0, 4, 5))


def faces(d):
    """The four faces (triads) of the tetrahedron as edge triples."""
    return tuple((d[i], d[j], d[k]) for i, j, k in FACE_SLOTS)


def triads(d):
    """Doubled triangle sums (v1, v2, v3, v4) of a doubled sextuple."""
    return tuple(sum(f) for f in faces(d))


def quads(d):
    """Doubled quadrangle sums (p1, p2, p3)."""
    a, b, c, x, y, z = d
    return (b + y + c + z, c + z + a + x, a + x + b + y)


def _triangle(a, b, c):
    return a + b >= c and b + c >= a and c + a >= b


def admissible(d, kind: str) -> bool:
    """kind "su2": every triad closes with an integer perimeter.
    kind "super": every triad closes and an even number of perimeters are integers."""
    if not all(_triangle(*f) for f in faces(d)):
        return False
    n_int = sum(1 for v in triads(d) if v % 2 == 0)
    return n_int == 4 if kind == "su2" else n_int % 2 == 0


def parity(d) -> str:
    """alpha / beta / gamma by the count (4 / 2 / 0) of integer triangle sums."""
    return {4: "alpha", 2: "beta", 0: "gamma"}[sum(1 for v in triads(d) if v % 2 == 0)]


def grid(kind: str, max_twice: int) -> list[tuple[int, ...]]:
    """Every admissible sextuple with doubled spins in 0..max_twice, sorted."""
    rng = range(max_twice + 1)
    out = []
    for a, b, c in itertools.product(rng, repeat=3):
        if not _triangle(a, b, c):
            continue
        for x, y in itertools.product(rng, repeat=2):
            if not _triangle(x, y, c):
                continue
            for z in rng:
                d = (a, b, c, x, y, z)
                if admissible(d, kind):
                    out.append(d)
    return out


def _tetrahedral_perms():
    """The 24 position permutations of the tetrahedral group of a 6j symbol:
    any permutation of the columns, times swapping the two rows in any
    even number of columns."""
    perms = set()
    for cols in itertools.permutations(range(3)):
        for flips in ((), (0, 1), (0, 2), (1, 2)):
            perm = []
            for row in (0, 1):
                for c in cols:
                    src_row = 1 - row if c in flips else row
                    perm.append(3 * src_row + c)
            perms.add(tuple(perm))
    assert len(perms) == 24
    return sorted(perms)


TETRAHEDRAL = _tetrahedral_perms()


def class_key(d):
    """Canonical representative of the tetrahedral class of d."""
    return min(tuple(d[i] for i in perm) for perm in TETRAHEDRAL)


def sum_terms(kind: str, d) -> int:
    """Number of terms in the single alternating sum, from the triangle data."""
    if kind == "su2":
        lo, hi = max(triads(d)) // 2, min(quads(d)) // 2
    else:
        lo = max((v + 1) // 2 for v in triads(d))
        hi = min((p + 1) // 2 for p in quads(d))
    return max(hi - lo + 1, 0)


def euclidean(d) -> bool:
    """Positive Cayley-Menger volume (exact), via the Gram determinant."""
    return gram512(d) > 0


def gram512(d) -> int:
    """512 * 36 V^2 (36 V^2 is the Gram determinant) for edge lengths = spins.

    Vertices 0..3 with edges 12 = j1, 02 = j2, 01 = j3, 03 = J1, 13 = J2,
    23 = J3, so face 012 is (j1 j2 j3) and the pairs (j_i, J_i) are opposite.
    Vertex 0 is the origin; the Gram matrix of the other three comes from
    the squared lengths.  Entries are kept as 8 * Gram, in integers.
    """
    g = [[gram8(d, 0, r, c) for c in (1, 2, 3)] for r in (1, 2, 3)]
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


EDGE_SLOT = {(1, 2): 0, (0, 2): 1, (0, 1): 2, (0, 3): 3, (1, 3): 4, (2, 3): 5}


def edge_sq4(d, u, w) -> int:
    """4 * squared length of edge uw (the squared doubled spin)."""
    if u == w:
        return 0
    x = d[EDGE_SLOT[(min(u, w), max(u, w))]]
    return x * x


def gram8(d, o, r, c) -> int:
    """8 * (x_r - x_o) . (x_c - x_o), from squared lengths."""
    return edge_sq4(d, o, r) + edge_sq4(d, o, c) - edge_sq4(d, r, c)


def build(workload: str, seed: int) -> list:
    """The pass inputs of a workload, in the order the seed picks."""
    rng = random.Random(seed)
    if workload == "grid_small":
        items = [("su2", d) for d in grid("su2", SU2_MAX_TWICE)]
        items += [("super", d) for d in grid("super", OSP_MAX_TWICE)]
    elif workload == "large_k":
        items = list(LARGE_K)
    elif workload == "scan_cli":
        items = list(SCAN_SEXTUPLES)
    elif workload == "asym_grid":
        items = [
            (d, parity(d) == "alpha")
            for d in grid("super", OSP_MAX_TWICE)
            if euclidean(d)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def spin_text(twice: int) -> str:
    """A doubled spin as CLI text: "2" or "3/2"."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def scan_ks() -> list[int]:
    k_from, k_to, k_step = SCAN_K
    return list(range(k_from, k_to + 1, k_step))


def pass_sum_terms(workload: str, items: list) -> int:
    """Summation terms of every exact evaluation one pass makes."""
    if workload == "grid_small":
        return sum(sum_terms(kind, d) for kind, d in items)
    if workload == "large_k":
        return sum(sum_terms(kind, tuple(k * x for x in d)) for kind, d, k in items)
    if workload == "scan_cli":
        return sum(
            sum_terms(kind, tuple(k * x for x in d)) for kind, d in items for k in scan_ks()
        )
    return 0
