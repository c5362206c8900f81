"""Catalog of graph generators with analytically known answers.

Each generator produces an infinite, connected, locally finite unit-weight
graph.  Where a closed form for the point-assigned field or the induced
pseudo-metric is known, :func:`oracle` exposes it so tests can compare the
generic pipeline against an independent answer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, GeneratorParamError, UnknownGeneratorError
from .space import GraphSpace


def _is_int(value):
    """An int that is not a bool: JSON's true and false load as bools."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(v):
    """A tuple of two ints, neither a bool."""
    return isinstance(v, tuple) and len(v) == 2 and _is_int(v[0]) and \
        _is_int(v[1])


class _IntVertices(GraphSpace):
    """Integer vertices with decimal labels, based at 0, at graph distance
    |a - b|."""

    def default_base(self):
        return 0

    def distance(self, a, b):
        return abs(a - b)

    def sphere_at(self, b, r):
        return tuple(v for v in {b - r, b + r} if self.contains(v))

    def parse_vertex(self, text):
        return self.check_vertex(int(text))

    def vertex_label(self, v):
        return str(v)


class _PairCodec:
    """Small int codes for the integer pairs of a window B_R(base).

    The pair (x, y) with |x - a|, |y - b| <= R + 1, base (a, b), has the
    code (x - a + R + 1) * S + (y - b + R + 1), stride S = 2R + 3: one int
    in [0, S^2), below 2^30 for R < 16,382, so one 30-bit digit.  Codes
    sort as their pairs do.  ``encode`` gives None for any other value,
    a pair of non-ints included, so a far vertex or a float never aliases
    a code.  ``neighbors`` is the generator's neighbor rule on codes, in
    generator order; it is called only on the vertices of B_R(base), whose
    neighbors lie in the box on a graph whose distance is at least the L1
    distance.
    """

    __slots__ = ("stride", "x0", "y0", "neighbors")

    def __init__(self, base, radius, space):
        self.stride = 2 * radius + 3
        self.x0, self.y0 = base[0] - radius - 1, base[1] - radius - 1
        self.neighbors = space.code_rule(self.stride, self.x0, self.y0)

    def encode(self, v):
        if not _is_pair(v):
            return None
        s = self.stride
        x, y = v[0] - self.x0, v[1] - self.y0
        return x * s + y if 0 <= x < s and 0 <= y < s else None

    def decode(self, c):
        x, y = divmod(c, self.stride)
        return (x + self.x0, y + self.y0)


class _PairVertices(GraphSpace):
    """Integer-pair vertices labelled 'x,y', based at (0, 0).

    A generator that sets ``code_rule`` holds its windows' vertices as
    :class:`_PairCodec` codes: ``code_rule(S, x0, y0)`` returns its
    neighbor rule on the codes of stride S whose code 0 is (x0, y0)."""

    code_rule = None

    def window_codec(self, base, radius):
        return self if self.code_rule is None else \
            _PairCodec(base, radius, self)

    def default_base(self):
        return (0, 0)

    def parse_vertex(self, text):
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError(f"expected 'x,y', got {text!r}")
        return self.check_vertex((int(parts[0]), int(parts[1])))

    def vertex_label(self, v):
        return f"{v[0]},{v[1]}"


class Line(_IntVertices):
    """The integer line; contains a geodesic line through every vertex."""

    generator_id = "line"
    ball_size_exact = True      # B_R(b) is the 2R + 1 integers b - R..b + R

    def ball_size_bound(self, base, radius):
        return 2 * radius + 1

    def neighbors(self, v):
        return (v - 1, v + 1)

    def contains(self, v):
        return _is_int(v)

    def rays_cover(self, b, r):
        """Always: from b through v, keep moving away from b."""
        return True


class HalfLine(_IntVertices):
    """The one-ended ray 0,1,2,...; all point-assigned fields coincide."""

    generator_id = "halfline"
    ball_size_exact = True      # B_R(b) is max(0, b - R)..b + R

    def ball_size_bound(self, base, radius):
        return radius + min(base, radius) + 1

    def neighbors(self, v):
        if v == 0:
            return (1,)
        return (v - 1, v + 1)

    def contains(self, v):
        return _is_int(v) and v >= 0

    def rays_cover(self, b, r):
        """Only at the end or for r = 0: B_0(b) = {b}, and the ray 0, 1,
        2, ... passes through every vertex; a geodesic ray from b >= 1 is
        b, b + 1, ..., which misses b - 1."""
        return b == 0 or r == 0


class Tree(GraphSpace):
    """Infinite rooted b-ary tree; every vertex is a pole for b >= 2.

    Vertices are root-to-vertex child-index tuples; the root is ().
    tree(1) degenerates to the halfline.
    """

    generator_id = "tree"
    schema = {"b": "branching factor, int >= 1"}

    def __init__(self, b, scale=Fraction(1)):
        if not _is_int(b) or b < 1:
            raise GeneratorParamError(
                "tree branching factor b must be an integer >= 1")
        super().__init__(scale)
        self.b = b

    def ball_size_bound(self, base, radius):
        """B_R(base) lies in B_n(root), n = depth(base) + R: n + 1 vertices
        when b = 1, else (b^(n+1) - 1)/(b - 1), which past n = 62 exceeds
        2^63, more than any window holds, so no bound is given."""
        n = len(base) + radius
        if self.b == 1:
            return n + 1
        return (self.b ** (n + 1) - 1) // (self.b - 1) if n <= 62 else None

    def neighbors(self, v):
        children = tuple(v + (i,) for i in range(self.b))
        if v:
            return (v[:-1],) + children
        return children

    def contains(self, v):
        return (isinstance(v, tuple)
                and all(_is_int(c) and 0 <= c < self.b for c in v))

    def rays_cover(self, base, r):
        """For b >= 2 always: from the base through v, go on down
        children, the first not on the path back to the base (v has b
        children, at most one of them on it); a path that never turns back
        is a geodesic in a tree.  For b = 1 the tree is the halfline, so
        only at the root or for r = 0 (:class:`HalfLine`)."""
        return self.b >= 2 or base == () or r == 0

    def default_base(self):
        return ()

    def parse_vertex(self, text):
        if text in ("", "root"):
            return ()
        return self.check_vertex(tuple(int(c) for c in text.split(".")))

    def vertex_label(self, v):
        return "root" if not v else ".".join(str(c) for c in v)


class Grid2D(_PairVertices):
    """The Z^2 lattice with 4-neighbor adjacency."""

    generator_id = "grid2d"
    ball_size_exact = True      # B_R(b) is the L1 diamond, 2R^2 + 2R + 1

    def ball_size_bound(self, base, radius):
        return 2 * radius * radius + 2 * radius + 1

    def neighbors(self, v):
        x, y = v
        return ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))

    @staticmethod
    def code_rule(s, x0, y0):
        def neighbors(c):
            return (c - s, c - 1, c + 1, c + s)
        return neighbors

    def contains(self, v):
        return _is_pair(v)

    def rays_cover(self, b, r):
        """Always: from b through v, keep moving away from b along a
        coordinate of v - b (any, if v = b); each step adds one to the L1
        distance."""
        return True

    def distance(self, a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def sphere_at(self, b, r):
        """The 4r lattice points at L1 distance r >= 1, one quarter of the
        diamond per side; (b,) at r = 0."""
        x, y = b
        if not r:
            return (b,)
        return [p for i in range(r) for p in (
            (x + r - i, y + i), (x - i, y + r - i), (x - r + i, y - i),
            (x + i, y - r + i))]


class HGraph(_PairVertices):
    """The H-graph: x-axis plus, for every i >= 1, the three-segment arm
    joining (-i,0) to (i,0) through height i, on both signs of x.

    Vertices are integer points (x, y) with y = 0 (axis), 1 <= y <= |x|
    (column at x), or |x| <= y (row at height y).  Edges join unit-distance
    points along a common segment.
    """

    generator_id = "h_graph"

    def ball_size_bound(self, base, radius):
        """The graph is a subgraph of Z^2 with unit lattice edges in y >= 0,
        so d((a, b), (x, y)) >= |x - a| + |y - b|: B_R lies in the lattice
        diamond of radius R, 2R^2 + 2R + 1 points, and around (0, 0) in its
        half y >= 0, (R + 1)^2 points."""
        if base == (0, 0):
            return (radius + 1) ** 2
        return 2 * radius * radius + 2 * radius + 1

    def neighbors(self, v):
        """Sorted neighbors, case by case: the axis, the inside of a row
        (|x| < y), the inside of a column (|x| > y) and the corners
        (x = +-y), where the row meets the column."""
        x, y = v
        if y == 0:
            if x == 0:
                return ((-1, 0), (1, 0))
            return ((x - 1, 0), (x, 1), (x + 1, 0))
        if -y < x < y:
            return ((x - 1, y), (x + 1, y))
        if x > y or x < -y:
            return ((x, y - 1), (x, y + 1))
        if x > 0:
            return ((x - 1, y), (x, y - 1))
        return ((x, y - 1), (x + 1, y))

    @staticmethod
    def code_rule(s, x0, y0):
        """:meth:`neighbors` on codes: the same cases, read off the
        decoded pair."""
        def neighbors(c):
            x = c // s
            y = c - x * s + y0
            x += x0
            if y == 0:
                if x == 0:
                    return (c - s, c + s)
                return (c - s, c + 1, c + s)
            if -y < x < y:
                return (c - s, c + s)
            if x > y or x < -y:
                return (c - 1, c + 1)
            if x > 0:
                return (c - s, c - 1)
            return (c - 1, c + s)
        return neighbors

    def contains(self, v):
        if not _is_pair(v):
            return False
        x, y = v
        if y < 0:
            return False
        if y == 0:
            return True
        return abs(x) <= y or (x != 0 and y <= abs(x))

    def distance(self, a, b):
        """From (0, 0) only: the axis point (x, 0) is |x| away, a column
        point (x, y), 1 <= y <= |x|, is reached up its column from the
        axis, |x| + y, and a row point, |x| <= y, only through a corner
        (+-y, y), 2y + y - |x|."""
        if a != (0, 0):
            return None
        x, y = b
        return abs(x) + y if y <= abs(x) else 3 * y - abs(x)

    def sphere_at(self, b, r):
        """From (0, 0) only, by :meth:`distance`: the axis points (+-r, 0),
        the column points (+-(r - y), y), 1 <= y <= r / 2, and the row
        points (+-(3y - r), y), r / 3 <= y < r / 2, short of the corners,
        which the columns hold."""
        if b != (0, 0):
            return None
        if not r:
            return (b,)
        out = [(-r, 0), (r, 0)]
        for y in range(1, r // 2 + 1):
            out += (-(r - y), y), (r - y, y)
        for y in range((r + 2) // 3, (r + 1) // 2):
            out += {(-(3 * y - r), y), (3 * y - r, y)}
        return out


class Stick(GraphSpace):
    """Discrete infinite stick: an apex, m spokes of h interior vertices,
    an m-cycle, and one infinite ray per cycle vertex.

    The apex plays the pole of the smooth model; u_apex = -d(apex, .)
    exactly, and u at other bases matches d(base, apex) - d(., apex) within
    half the cycle circumference.
    """

    generator_id = "stick"
    schema = {"m": "cycle length, int >= 3",
              "h": "spoke interior vertices, int >= 0"}

    def __init__(self, m, h, scale=Fraction(1)):
        if not _is_int(m) or m < 3:
            raise GeneratorParamError(
                "stick needs an integer m >= 3 cycle vertices")
        if not _is_int(h) or h < 0:
            raise GeneratorParamError(
                "stick spoke length h must be an integer >= 0")
        super().__init__(scale)
        self.m = m
        self.h = h

    def ball_size_bound(self, base, radius):
        """A step changes the distance to the apex by at most one, and each
        distance holds at most m vertices, so B_R has at most m (2R + 1)."""
        return self.m * (2 * radius + 1)

    def neighbors(self, v):
        m, h = self.m, self.h
        kind = v[0]
        if kind == "apex":
            if h == 0:
                return tuple(("cycle", j) for j in range(m))
            return tuple(("spoke", j, 1) for j in range(m))
        if kind == "spoke":
            _, j, t = v
            down = ("apex",) if t == 1 else ("spoke", j, t - 1)
            up = ("cycle", j) if t == h else ("spoke", j, t + 1)
            return (down, up)
        if kind == "cycle":
            _, j = v
            inward = ("apex",) if h == 0 else ("spoke", j, h)
            return (inward,
                    ("cycle", (j - 1) % m), ("cycle", (j + 1) % m),
                    ("ray", j, 1))
        _, j, t = v
        down = ("cycle", j) if t == 1 else ("ray", j, t - 1)
        return (down, ("ray", j, t + 1))

    def contains(self, v):
        if not (isinstance(v, tuple) and v and all(map(_is_int, v[1:]))):
            return False
        kind = v[0]
        if kind == "apex":
            return len(v) == 1
        if kind == "cycle":
            return len(v) == 2 and 0 <= v[1] < self.m
        if kind == "spoke":
            return (len(v) == 3 and 0 <= v[1] < self.m
                    and 1 <= v[2] <= self.h)
        if kind == "ray":
            return len(v) == 3 and 0 <= v[1] < self.m and v[2] >= 1
        return False

    def default_base(self):
        return ("apex",)

    def parse_vertex(self, text):
        parts = text.split(":")
        return self.check_vertex(
            (parts[0],) + tuple(int(p) for p in parts[1:]))

    def vertex_label(self, v):
        return ":".join(str(c) for c in v)

    def dist_to_apex(self, v):
        kind = v[0]
        if kind == "apex":
            return 0
        if kind == "spoke":
            return v[2]
        if kind == "cycle":
            return self.h + 1
        return self.h + 1 + v[2]


class PendantLine(_PairVertices):
    """The integer line with one pendant leaf per integer.

    Vertices are (n, 0) on the spine and (n, 1) leaves; GH-close to the
    plain line at scale 1.
    """

    generator_id = "pendant_line"

    def ball_size_bound(self, base, radius):
        """A step changes n by at most one, so B_R((a, k)) lies in the
        2 (2R + 1) vertices (n, 0), (n, 1) with |n - a| <= R."""
        return 2 * (2 * radius + 1)

    def neighbors(self, v):
        n, k = v
        if k == 0:
            return ((n - 1, 0), (n, 1), (n + 1, 0))
        return ((n, 0),)

    def contains(self, v):
        return _is_pair(v) and v[1] in (0, 1)


class Cylinder(_PairVertices):
    """The two-ended discrete cylinder Z x Z_m."""

    generator_id = "cylinder"
    schema = {"m": "circumference, int >= 3"}

    def __init__(self, m, scale=Fraction(1)):
        if not _is_int(m) or m < 3:
            raise GeneratorParamError("cylinder needs an integer m >= 3")
        super().__init__(scale)
        self.m = m

    def ball_size_bound(self, base, radius):
        """A step changes x by at most one, so B_R((a, j)) lies in the
        m (2R + 1) vertices with |x - a| <= R."""
        return self.m * (2 * radius + 1)

    def neighbors(self, v):
        x, j = v
        m = self.m
        return ((x - 1, j), (x, (j - 1) % m), (x, (j + 1) % m), (x + 1, j))

    def contains(self, v):
        return _is_pair(v) and 0 <= v[1] < self.m

    def rays_cover(self, b, r):
        """Always: from b through v, keep moving away from b along the
        line; d((a, i), (x, j)) = |x - a| + d_m(i, j), d_m the distance on
        the m-cycle, so each step adds one."""
        return True


GENERATORS = {cls.generator_id: cls for cls in (
    Line, HalfLine, Tree, Grid2D, HGraph, Stick, PendantLine, Cylinder)}


def build(name, params=None, scale=Fraction(1)):
    """Instantiate a generator from the catalog: ``name`` a string,
    ``params`` None or a dict."""
    if not isinstance(name, str):
        raise DomainError(f"generator must be a string, got {name!r}")
    cls = GENERATORS.get(name)
    if cls is None:
        raise UnknownGeneratorError(
            f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise GeneratorParamError(
            f"{name} params must be an object, got {params!r}")
    unknown = set(params) - set(cls.schema)
    if unknown:
        raise GeneratorParamError(
            f"{name} does not take parameters {sorted(unknown)}")
    missing = set(cls.schema) - set(params)
    if missing:
        raise GeneratorParamError(
            f"{name} requires parameters {sorted(missing)}")
    return cls(scale=Fraction(scale), **params)


def build_from_dict(spec):
    """Build from a space-spec mapping {generator, params, scale}."""
    if not isinstance(spec, dict):
        raise DomainError(f"space spec must be an object, got {spec!r}")
    if "generator" not in spec:
        raise DomainError("space spec needs a 'generator' key")
    scale = spec.get("scale", {"num": 1, "den": 1})
    try:
        num, den = scale["num"], scale["den"]
        if not (_is_int(num) and _is_int(den)):
            raise TypeError(f"expected integers, got {num!r}/{den!r}")
        scale = Fraction(num, den)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"space scale must be {{num, den}} integers with "
                          f"den != 0: {exc!r}") from None
    return build(spec["generator"], spec.get("params"), scale)


def catalog():
    """Generator names, parameter schemas, and available oracles."""
    return {
        name: {
            "params": dict(cls.schema),
            "oracles": sorted(_ORACLES.get(name, {})),
        }
        for name, cls in sorted(GENERATORS.items())
    }


# --------------------------------------------------------------------------
# Closed-form oracles


def _h_graph_u(space, base, vertex):
    if base != (0, 0):
        raise DomainError("h_graph oracle only knows the base (0,0)")
    x, y = vertex
    return y - abs(x)    # axis, row and column points alike


def _tree_u(space, base, vertex):
    # Every vertex of tree(b>=2) is a pole; tree(1) is the halfline with
    # the same formula only when the base is the root.
    if space.b == 1 and base != ():
        raise DomainError("tree(1) oracle only supports the root base")
    common = 0
    for a, b in zip(base, vertex):
        if a == b:
            common += 1
        else:
            break
    n = (len(base) - common) + (len(vertex) - common)
    return -n


def _line_u(space, base, vertex):
    return -abs(vertex - base)


def _halfline_u(space, base, vertex):
    return base - vertex


def _stick_u_tol(space, base, vertex):
    # d(base, apex) - d(., apex), valid within half the cycle circumference.
    ref = space.dist_to_apex(base) - space.dist_to_apex(vertex)
    return ref, space.m // 2


_ORACLES = {
    "h_graph": {"point_assigned": _h_graph_u},
    "tree": {"point_assigned": _tree_u},
    "line": {"point_assigned": _line_u,
             "rho": lambda space, x, y: Fraction(abs(x - y), 1) / space.scale},
    "halfline": {"point_assigned": _halfline_u,
                 "rho": lambda space, x, y: Fraction(0)},
    "stick": {"point_assigned_tol": _stick_u_tol},
}


def oracle(space, quantity, *args):
    """Closed-form expected value for supported (generator, quantity) pairs.

    * ``point_assigned`` (base, vertex) -> exact integer hop value
    * ``point_assigned_tol`` (base, vertex) -> (reference, tolerance)
    * ``rho`` (x, y) -> exact Fraction in reported units
    """
    table = _ORACLES.get(space.generator_id)
    if not table or quantity not in table:
        raise DomainError(
            f"no {quantity!r} oracle for generator {space.generator_id}")
    return table[quantity](space, *args)
