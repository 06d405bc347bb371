"""Stationary Bratteli diagrams: incidence data, heights, telescoping, paths.

A diagram is described by one non-negative integer matrix F that repeats
between all consecutive levels below the root.  Entry ``F[v][w]`` counts
the edges a level-(n+1) vertex ``v`` receives from the level-n vertex
``w``.  The root connects to every level-1 vertex by a single edge, so
the path count ("height") of every vertex at level 1 is 1 and the
vector of heights satisfies ``h(n+1) = F h(n)``.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import CapExceeded, DimensionMismatch
from .record import record


@record
class StationaryDiagram:
    incidence: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.incidence)
        n = len(rows)
        if n == 0:
            raise DimensionMismatch("diagram needs at least one vertex")
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("incidence matrix must be square")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("incidence entries must be non-negative")
        object.__setattr__(self, "incidence", rows)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise DimensionMismatch("labels must match the vertex count")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
            # a label with ':' or a leading '#' would not survive the order section
            if any(not s or s[0] == "#" or any(c.isspace() or c == ":" for c in s)
                   for s in labels):
                raise ValueError("labels must be non-empty, contain no whitespace or ':' "
                                 "and not start with '#'")
            object.__setattr__(self, "labels", labels)

    @property
    def n_vertices(self):
        return len(self.incidence)

    @property
    def effective_labels(self):
        """Display names: explicit labels, else 1-based vertex numbers."""
        if self.labels is not None:
            return self.labels
        return tuple(str(i + 1) for i in range(self.n_vertices))

    def row_sum(self, v):
        return sum(self.incidence[v])

    def col_sum(self, w):
        return sum(row[w] for row in self.incidence)

    def vertex_named(self, name):
        try:
            return self.effective_labels.index(name)
        except ValueError:
            raise KeyError(f"no vertex named {name!r}") from None


@record
class Diagnostic:
    kind: str
    vertex: int
    message: str


def validate(d: StationaryDiagram) -> list[Diagnostic]:
    """Warning-level checks: every vertex needs incoming and outgoing edges."""
    out = []
    for v in range(d.n_vertices):
        if d.row_sum(v) == 0:
            out.append(Diagnostic("no-incoming", v,
                                  f"vertex {d.effective_labels[v]} has no incoming edges (empty row)"))
    for w in range(d.n_vertices):
        if d.col_sum(w) == 0:
            out.append(Diagnostic("no-outgoing", w,
                                  f"vertex {d.effective_labels[w]} has no outgoing edges (empty column)"))
    return out


def height_levels(d: StationaryDiagram):
    """h(1), h(2), ...: path counts from the root to each vertex of
    successive levels, by h(n+1) = F h(n)."""
    h = [1] * d.n_vertices
    while True:
        yield h
        h = linalg.mat_vec(d.incidence, h)


def height_table(d: StationaryDiagram, n_max: int) -> list:
    """[None, h(1), ..., h(n_max)]: index n holds the heights of level n."""
    return [None, *itertools.islice(height_levels(d), n_max)]


def heights(d: StationaryDiagram, n: int) -> tuple[int, ...]:
    """h(n): path counts from the root to each vertex of level n (n >= 1)."""
    if n < 1:
        raise ValueError("levels are 1-based")
    return tuple(next(itertools.islice(height_levels(d), n - 1, None)))


TELESCOPE_CAP = 10 ** 6  # telescoping power, and edges per level after it


def telescope(d: StationaryDiagram, k: int) -> StationaryDiagram:
    """Contract k consecutive levels into one: incidence becomes F**k.
    A power above TELESCOPE_CAP, or more than TELESCOPE_CAP edges per
    level in F**k, raises CapExceeded.  The edges are counted on F**k
    clipped at TELESCOPE_CAP + 1, so no entry grows past the cap; under
    the cap that clipped power is F**k itself."""
    if k < 1:
        raise ValueError("telescoping power must be >= 1")
    fk = linalg.mat_pow(d.incidence, k, TELESCOPE_CAP + 1) if k <= TELESCOPE_CAP else None
    if fk is None or sum(map(sum, fk)) > TELESCOPE_CAP:
        raise CapExceeded(f"telescoping by {k} is above the cap of {TELESCOPE_CAP} "
                          "levels or edges per level", cap=TELESCOPE_CAP)
    return StationaryDiagram(tuple(tuple(row) for row in fk), d.labels)


@record
class PathWord:
    """Finite path from the root: the vertex visited at each level 1..n
    plus, for each level >= 2, the 0-based index of the edge inside the
    parallel bundle from the previous vertex.  The root edge to the
    level-1 vertex is unique and therefore implicit."""

    vertices: tuple[int, ...]
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path has length at least 1")
        if len(self.indices) != len(self.vertices) - 1:
            raise DimensionMismatch("need one bundle index per level beyond the first")

    @property
    def level(self):
        return len(self.vertices)

    @property
    def terminal(self):
        return self.vertices[-1]

    @property
    def edges(self):
        """Edges as (level, source, target, bundle index); the level-1
        source is None for the root."""
        out = [(1, None, self.vertices[0], 0)]
        for i in range(1, len(self.vertices)):
            out.append((i + 1, self.vertices[i - 1], self.vertices[i], self.indices[i - 1]))
        return tuple(out)

    def prefix(self, n):
        return PathWord(self.vertices[:n], self.indices[:max(0, n - 1)])


def check_path(d: StationaryDiagram, p: PathWord):
    """Raise if p does not describe an actual path of the diagram."""
    if min(p.vertices) < 0 or max(p.vertices) >= d.n_vertices:
        raise DimensionMismatch("path visits an unknown vertex")
    for w, v, j in zip(p.vertices, p.vertices[1:], p.indices):
        bundle = d.incidence[v][w]
        if not (0 <= j < bundle):
            raise ValueError(
                f"no edge {j} from vertex {d.effective_labels[w]} to "
                f"{d.effective_labels[v]} (bundle size {bundle})")


def vertex_sequences(d: StationaryDiagram, v: int, n: int):
    """The vertex sequences (v1, ..., vn = v) of the paths from the root
    to vertex v at level n, as tuples: the level n-1 vertex ascends
    first, then level n-2, and so on, from an explicit stack.  A sequence
    carries the product of its bundle sizes ``F[v(i+1)][v(i)]`` paths.
    No cap is checked here."""
    sources = [[w for w, e in enumerate(row) if e] for row in d.incidence]
    # stack[k] walks the choices at level n - k; upper holds those taken above
    stack, upper = [iter((v,))], ()
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            upper = upper[1:]
        elif len(stack) < n:
            upper = (w, *upper)
            stack.append(iter(sources[w]))
        else:  # w is the level-1 vertex
            yield (w, *upper)


def enumerate_paths(d: StationaryDiagram, v: int, n: int, cap: int = 10 ** 6) -> list[PathWord]:
    """All paths from the root to vertex v at level n, in a fixed
    deterministic order (sources ascending, bundle indices ascending,
    most significant choice at the top level): for each sequence of
    ``vertex_sequences`` in turn, its paths with bundle indices in
    ``itertools.product`` order."""
    total = heights(d, n)[v]
    if total > cap:
        raise CapExceeded(f"{total} paths exceed the cap of {cap}", total, cap)
    f = d.incidence
    paths = [PathWord(vs, idx) for vs in vertex_sequences(d, v, n)
             for idx in itertools.product(*[range(f[b][a]) for a, b in zip(vs, vs[1:])])]
    assert len(paths) == total
    return paths
