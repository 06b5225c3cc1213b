"""Instance makers: named constructions and seeded random samplers.

Every random maker takes an integer seed and is deterministic in it;
batch helpers derive one child seed per index so a batch is reproducible
and individual instances can be regenerated without replaying the whole
stream.
"""

from __future__ import annotations

import random
from itertools import combinations

from .bitsets import mask_of, tuple_of
from .errors import ValidationError
from .hypergraph import Hypergraph, build


def path_graph(n: int) -> Hypergraph:
    """Path on n vertices, edges in walk order."""
    if n < 2:
        raise ValidationError("path needs at least 2 vertices")
    return build([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Hypergraph:
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return build([f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Hypergraph:
    if n < 2:
        raise ValidationError("complete graph needs at least 2 vertices")
    return build([f"v{i}" for i in range(n)], list(combinations(range(n), 2)))


def fan_graph(n: int) -> Hypergraph:
    """Hub joined to every path vertex: spokes first, then the path.

    The n spoke edges occupy indices 0..n-1; they form a family that is
    self ordered under any order, of type (n, n+1).
    """
    if n < 1:
        raise ValidationError("fan needs at least 1 path vertex")
    labels = ["z"] + [f"x{i}" for i in range(1, n + 1)]
    spokes = [(0, i) for i in range(1, n + 1)]
    path = [(i, i + 1) for i in range(1, n)]
    return build(labels, spokes + path)


def complete_uniform(d: int) -> Hypergraph:
    """All d-subsets of a (d+1)-set."""
    if d < 2:
        raise ValidationError("edge size must be at least 2")
    labels = [f"x{i}" for i in range(1, d + 2)]
    return build(labels, list(combinations(range(d + 1), d)))


def star_hypergraph(d: int, n: int) -> Hypergraph:
    """n edges of size d through a common core of d - 1 vertices.

    For d = 2 this is the star graph K_{1,n}.
    """
    if d < 2:
        raise ValidationError("edge size must be at least 2")
    if n < 1:
        raise ValidationError("star needs at least 1 edge")
    labels = [f"z{i}" for i in range(1, d)] + [f"x{i}" for i in range(1, n + 1)]
    core = tuple(range(d - 1))
    return build(labels, [core + (d - 1 + i,) for i in range(n)])


def derive_seed(seed: int, index: int) -> int:
    """Child seed for the index-th instance of a batch."""
    return (seed * 1_000_003 + index * 7_919 + 97) & 0x7FFF_FFFF_FFFF_FFFF


def _vertex_labels(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def random_general(n: int, m: int, seed: int) -> Hypergraph:
    """Random antichain of edges on n vertices, at most m edges.

    Rejection sampling; stops early when no incomparable edge fits, so
    the result can have fewer than m edges.
    """
    if n < 2 or m < 0:
        raise ValidationError("need at least 2 vertices and a nonnegative edge budget")
    rng = random.Random(seed)
    masks: list[int] = []
    tries = 0
    while len(masks) < m and tries < 60 * m + 40:
        tries += 1
        size = rng.randint(2, min(n, 5))
        cand = mask_of(rng.sample(range(n), size))
        if any(cand & e == cand or cand & e == e for e in masks):
            continue
        masks.append(cand)
    return build(_vertex_labels(n), [tuple_of(e) for e in masks])


def random_uniform(d: int, n: int, m: int, seed: int) -> Hypergraph:
    """Random d-uniform hypergraph: m distinct d-subsets of n vertices."""
    if d < 2:
        raise ValidationError("edge size must be at least 2")
    if n < d:
        raise ValidationError(f"{n} vertices cannot carry edges of size {d}")
    if m < 0:
        raise ValidationError("need a nonnegative edge budget")
    rng = random.Random(seed)
    masks: list[int] = []
    tries = 0
    while len(masks) < m and tries < 60 * m + 40:
        tries += 1
        cand = mask_of(rng.sample(range(n), d))
        if cand not in masks:
            masks.append(cand)
    return build(_vertex_labels(n), [tuple_of(e) for e in masks])


def random_special_triangulated(d: int, n: int, m: int, seed: int) -> Hypergraph:
    """Random triangulated instance of the restricted-intersection class.

    Grows edges by attaching a (d-1)-subset of an existing edge to a
    fresh vertex, occasionally opening a disjoint component; candidates
    that break the pairwise-intersection rule are rejected, so every
    result is a valid input for the recursive engine. Triangulatedness
    needs no test: a fresh vertex of the new edge has that edge as its
    closed neighborhood, so it is simplicial in each induced
    subhypergraph holding the edge, and any other has the edges of an
    induced subhypergraph of the instance before.

    ``m`` is an upper bound on the edge count, seldom reached: every new
    edge takes a fresh vertex and every new component takes d, and
    growth stops when fresh vertices run out, so ``n`` usually decides
    the size.
    """
    if d < 2:
        raise ValidationError("edge size must be at least 2")
    if n < d:
        raise ValidationError(f"{n} vertices cannot carry edges of size {d}")
    if m < 0:
        raise ValidationError("need a nonnegative edge budget")
    rng = random.Random(seed)
    masks = [mask_of(range(d))]
    fresh = d
    tries = 0
    while fresh < n and len(masks) < m and tries < 40 * m + 40:
        tries += 1
        if rng.random() < 0.15 and n - fresh >= d:
            cand = mask_of(range(fresh, fresh + d))
            used = d
        else:
            parent = rng.choice(masks)
            drop = rng.choice(tuple_of(parent))
            cand = (parent & ~(1 << drop)) | (1 << fresh)
            used = 1
        if all(not (cand & e) or (cand & e).bit_count() == d - 1 for e in masks):
            masks.append(cand)
            fresh += used
    return build(_vertex_labels(n), [tuple_of(e) for e in masks])


def random_chordal(n: int, m: int, seed: int) -> Hypergraph:
    """Random chordal graph on n vertices with at most m edges.

    Each new vertex attaches to a subset of a previously recorded
    clique, so the reverse placement order is a perfect elimination
    ordering.
    """
    if n < 2 or m < 0:
        raise ValidationError("need at least 2 vertices and a nonnegative edge budget")
    rng = random.Random(seed)
    cliques: list[tuple[int, ...]] = [()]
    edges: list[tuple[int, int]] = []
    for v in range(n):
        base = rng.choice(cliques)
        k = min(len(base), m - len(edges), 1 + rng.randrange(3))
        picked = sorted(rng.sample(base, k)) if k > 0 else []
        for u in picked:
            edges.append((u, v))
        cliques.append(tuple(picked) + (v,))
    return build(_vertex_labels(n), edges)


def random_free_vertex(m: int, seed: int) -> Hypergraph:
    """m edges, each holding one private vertex plus a small shared core."""
    if m < 1:
        raise ValidationError("need at least 1 edge")
    rng = random.Random(seed)
    pool = max(2, min(5, m))
    edges = []
    for s in range(m):
        core = rng.sample(range(pool), 1 + rng.randrange(min(3, pool)))
        edges.append(tuple(sorted(core)) + (pool + s,))
    return build(_vertex_labels(pool + m), edges)


FUZZ_CLASSES = ("general", "uniform:D", "special:D", "chordal")


def parse_class(text: str) -> tuple[str, int | None]:
    """Parse a fuzz class spec like ``general`` or ``uniform:3``."""
    if text == "general":
        return "general", None
    if text == "chordal":
        return "chordal", None
    for tag in ("uniform", "special"):
        prefix = tag + ":"
        if text.startswith(prefix):
            rest = text[len(prefix) :]
            try:
                d = int(rest)
            except ValueError:
                raise ValidationError(f"bad edge size in class spec {text!r}") from None
            if d < 2:
                raise ValidationError("edge size must be at least 2")
            return tag, d
    raise ValidationError(
        f"unknown instance class {text!r}; expected one of {', '.join(FUZZ_CLASSES)}"
    )


def make_instance(tag: str, d: int | None, n: int, m: int, seed: int) -> Hypergraph:
    if tag in ("uniform", "special") and d is None:
        raise ValidationError(f"instance class {tag!r} needs an edge size")
    if tag == "general":
        return random_general(n, m, seed)
    if tag == "uniform":
        return random_uniform(d, n, m, seed)
    if tag == "special":
        return random_special_triangulated(d, n, m, seed)
    if tag == "chordal":
        return random_chordal(n, m, seed)
    raise ValidationError(f"unknown instance class tag {tag!r}")


def make_batch(class_spec: str, n: int, m: int, count: int, seed: int) -> list[Hypergraph]:
    """count instances of the given class, one derived seed each."""
    tag, d = parse_class(class_spec)
    return [make_instance(tag, d, n, m, derive_seed(seed, k)) for k in range(count)]
