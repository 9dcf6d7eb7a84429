"""Exception types shared across the package, and the refusal budgets."""


class InputError(ValueError):
    """Invalid argument values: unknown vertices, malformed words, bad ranges."""


class ResourceLimitError(RuntimeError):
    """A configured size or expansion budget would be exceeded."""


class ConfigError(ValueError):
    """An experiment config fails schema validation.  Carries the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class PropertyViolation(RuntimeError):
    """An experiment's structural gate failed (distinct exit code in the CLI)."""


# name -> the largest count of its kind that is built, checked before the work
BUDGETS: dict[str, int] = {
    # bytes of a dense int32 distance table, 8,192 vertices for V x V: the rows
    # a ``DistanceOracle`` holds, four-point rows, ``SubgraphFamily.shapes``
    # table and Milnor-Svarc's element tables, and a convexity scan's pairs at
    # 8 bytes a pair
    "table": 256 * 2**20,
    # cells of a convexity scan, pairs x |V|: 1.12e10 (1,124,250 pairs on a
    # 100 x 100 grid) took 31 s on a 2-core host; tier-1 tests scan <= 1.4e7
    "scan": 10_000_000_000,
    # a count no other budget bounds: four-point samples, the largest cycle's
    # metric table (n^2 cells), a lambda grid's values, the generator table of
    # a rank-r free or free abelian radius-1 ball (2r(2r + 1) cells), and the
    # paths a convexity scan enumerates past its geodesic cap
    "count": 1_000_000,
    # quadruples of an exhaustive four-point scan, C(n, 4): C(371, 4) =
    # 776,673,660 took 19 s on a 2-core host; the benchmark's delta has 341,055
    "quadruple": 1_000_000_000,
    # carrier vertices, |V| + depth * (member vertices): Z^2*Z^2 at radius 6
    # and depth 5 (acceptance criterion 07) has 66,921 + 5 * 133,842 = 736,131
    "carrier": 1_000_000,
    # carrier edges, counted from the shape matrices: the base's, depth * s
    # vertical ones per member of s vertices, and its pairs within 2^k at each
    # level k (criterion 07: 2,365,770).  A level past a member's diameter
    # joins all its pairs, so the vertex budget admits Theta(depth * s^2) edges.
    "carrier edge": 4_000_000,
}
# the unit each limit is written in; a bare count has none
_UNITS = {"table": " bytes", "scan": " cells", "carrier": " vertices", "carrier edge": " edges"}


def check_budget(name: str, count: int, what: str) -> None:
    """Refuse ``count`` over ``BUDGETS[name]``, read at the call, with a
    ``ResourceLimitError``: ``what``, which carries its verb, then the budget."""
    if count > BUDGETS[name]:
        raise ResourceLimitError(f"{what} the {name} budget of {BUDGETS[name]}{_UNITS.get(name, '')}")
