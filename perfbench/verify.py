"""Output checks that share no code with the package.

Every function returns a list of problems, empty when the output is
right. Instances are given as a vertex count and a list of edge
bitmasks; tables as dicts mapping (i, j) to a Betti number. Each check
compares against a property every correct output must have, worked out
here by brute force, never against stored output.
"""

from __future__ import annotations

from math import comb


def independent_set_counts(n: int, edges: list[int]) -> list[int]:
    """counts[k]: vertex sets of size k that contain no edge."""
    counts = [0] * (n + 1)
    # Sets grow in increasing vertex order, so adding v can only complete
    # an edge whose largest vertex is v.
    closing = [[e for e in edges if e.bit_length() - 1 == v] for v in range(n)]

    def grow(face: int, size: int, start: int) -> None:
        counts[size] += 1
        for v in range(start, n):
            cand = face | (1 << v)
            if any(e & cand == e for e in closing[v]):
                continue
            grow(cand, size + 1, v + 1)

    grow(0, 0, 0)
    return counts


def euler_numerator(n: int, edges: list[int]) -> list[int]:
    """Coefficients of the sum over independent sets F of t^|F| (1-t)^(n-|F|).

    This is the numerator of the Hilbert series of the quotient ring,
    so its t^j coefficient equals the alternating sum over i of
    beta_{i,j} over every field.
    """
    coeffs = [0] * (n + 1)
    for k, f in enumerate(independent_set_counts(n, edges)):
        for r in range(n - k + 1):
            coeffs[k + r] += f * (-1) ** r * comb(n - k, r)
    return coeffs


def check_table(n: int, edges: list[int], entries: dict,
                numerator: list[int] | None = None) -> list[str]:
    """Euler characteristic per degree, beta_00 = 1, and beta_1j = edges of size j.

    ``numerator`` is :func:`euler_numerator` of the instance, when the
    caller already has it.
    """
    problems = []
    if any(not isinstance(v, int) or v <= 0 for v in entries.values()):
        problems.append("table holds a zero, negative or non-integer entry")
    if entries.get((0, 0)) != 1:
        problems.append(f"beta_00 = {entries.get((0, 0), 0)}, expected 1")
    sizes: dict[int, int] = {}
    for e in edges:
        sizes[e.bit_count()] = sizes.get(e.bit_count(), 0) + 1
    row1 = {j: v for (i, j), v in entries.items() if i == 1}
    if row1 != sizes:
        problems.append(f"row 1 is {row1}, edge sizes give {sizes}")
    if numerator is None:
        numerator = euler_numerator(n, edges)
    for j in range(n + 1):
        alt = sum((-1) ** i * v for (i, jj), v in entries.items() if jj == j)
        if alt != numerator[j]:
            problems.append(f"degree {j}: alternating sum {alt}, Hilbert numerator {numerator[j]}")
    if any(j > n for _, j in entries):
        problems.append("entry beyond the number of vertices")
    return problems


def check_agreement(tables: dict) -> list[str]:
    """Tables of one instance over one field, keyed by engine, are equal."""
    items = sorted(tables.items())
    if not items:
        return []
    ref_name, ref = items[0]
    return [f"{name} table differs from {ref_name}" for name, table in items[1:] if table != ref]


def rp2_edges() -> list[int]:
    """The 10 triples that are not faces of the 6-vertex RP^2.

    Every pair of the six vertices lies in a face, so the independence
    complex of this hypergraph is RP^2 itself.
    """
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
             (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    face_masks = {sum(1 << v for v in f) for f in faces}
    out = []
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(b + 1, 6):
                mask = (1 << a) | (1 << b) | (1 << c)
                if mask not in face_masks:
                    out.append(mask)
    return out


def check_rp2(p: int, entries: dict) -> list[str]:
    """beta_{3,6} and beta_{4,6} are 1 in characteristic 2 and 0 otherwise."""
    want = 1 if p == 2 else 0
    got = (entries.get((3, 6), 0), entries.get((4, 6), 0))
    if got != (want, want):
        return [f"RP^2 over characteristic {p}: beta_36, beta_46 = {got}, expected {(want, want)}"]
    return []


def matching_number(edges: list[int]) -> int:
    """Largest number of pairwise disjoint edges, by brute force."""
    best = 0

    def grow(size: int, covered: int, start: int) -> None:
        nonlocal best
        best = max(best, size)
        for k in range(start, len(edges)):
            if not edges[k] & covered:
                grow(size + 1, covered | edges[k], k + 1)

    grow(0, 0, 0)
    return best


def induced_matching_number(edges: list[int]) -> int:
    """Largest matching whose union contains no other edge, by brute force.

    A matching that is not induced has an outside edge inside its union;
    that edge meets the matching, so no extension can take it in and
    every extension stays not induced. The search prunes there.
    """
    best = 0

    def grow(chosen: list[int], covered: int, start: int) -> None:
        nonlocal best
        if any(e & covered == e for k, e in enumerate(edges) if k not in chosen):
            return
        best = max(best, len(chosen))
        for k in range(start, len(edges)):
            if not edges[k] & covered:
                chosen.append(k)
                grow(chosen, covered | edges[k], k + 1)
                chosen.pop()

    grow([], 0, 0)
    return best


def regularity(entries: dict) -> int:
    return max((j - i for i, j in entries), default=0)


def check_chordal_regularity(edges: list[int], entries: dict) -> list[str]:
    """For a chordal graph, reg equals the induced matching number."""
    reg, want = regularity(entries), induced_matching_number(edges)
    if reg != want:
        return [f"chordal graph: reg {reg}, induced matching number {want}"]
    return []


_CHAIN = (("a", "m"), ("a", "b"), ("b", "d2"), ("b", "e"), ("a", "d1"), ("d1", "d2"),
          ("c", "e"), ("b_prime", "d2_prime"), ("d1_prime", "d2_prime"))


def check_invariants(edges: list[int], values: dict) -> list[str]:
    """Matching and induced matching numbers by brute force, and the
    inequality chain between the invariants."""
    problems = []
    m, a = matching_number(edges), induced_matching_number(edges)
    if values.get("m") != m:
        problems.append(f"matching number {values.get('m')}, brute force {m}")
    if values.get("a") != a:
        problems.append(f"induced matching number {values.get('a')}, brute force {a}")
    for low, high in _CHAIN:
        if not values[low] <= values[high]:
            problems.append(f"{low} = {values[low]} exceeds {high} = {values[high]}")
    return problems


def check_classification(edges: list[int], family: tuple, flags: dict) -> list[str]:
    """Type, matching, semi-induced, induced and reduced flags of one family."""
    masks = [edges[s] for s in family]
    union = 0
    for mask in masks:
        union |= mask
    matching = sum(mask.bit_count() for mask in masks) == union.bit_count()
    semi = not any(e & union == e for k, e in enumerate(edges) if k not in family)
    reduced = True
    for k, mask in enumerate(masks):
        rest = 0
        for t, other in enumerate(masks):
            if t != k:
                rest |= other
        if mask & rest == mask:
            reduced = False
    want = {"i": len(family), "j": union.bit_count(), "matching": matching,
            "semi_induced": semi, "induced": matching and semi, "reduced": reduced,
            "self_semi_induced": reduced and semi}
    return [f"family {family}: {key} = {flags.get(key)}, expected {value}"
            for key, value in want.items() if flags.get(key) != value]


# Checks that must pass, not skip, on a batch of each class. The
# splitting checks need a triangulated instance of the restricted class,
# which special:3 and chordal batches always are; general batches have
# neither, and conditional-pd-cap depends on the instance.
_EVERY_CLASS = ("implication-chain", "invariant-inequalities", "degree-window",
                "restriction-monotonicity", "engine-agreement", "induced-matching-slices",
                "pd-reg-lower-bounds", "lower-bound-certificates", "basis-sandwich",
                "admissibility-orderings")
_SPLITTING = ("uniform-spread-identity", "splitting-recursion", "matching-persistence",
              "split-extension", "disjointness-characterization")
MUST_PASS = {
    "general": _EVERY_CLASS,
    "special:3": _EVERY_CLASS + _SPLITTING,
    "chordal": _EVERY_CLASS + _SPLITTING + ("graph-identities",),
}


def check_campaign(class_spec: str, reports: list[dict]) -> list[str]:
    """run_fuzz reports of one class are ok, and together exercise the
    class's checks: each ends pass in some report."""
    problems = []
    if not reports:
        return [f"{class_spec}: no campaign report"]
    if not all(r.get("ok") for r in reports):
        problems.append(f"{class_spec} campaign report is not ok")
    if any(r.get("failures") for r in reports):
        problems.append(f"{class_spec} campaign report lists failures")
    passed = {c["name"] for r in reports for c in r.get("checks", []) if c["status"] == "pass"}
    for name in MUST_PASS[class_spec]:
        if name not in passed:
            problems.append(f"{class_spec}: check {name} never ended pass")
    return problems
