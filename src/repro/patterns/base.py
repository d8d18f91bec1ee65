"""Pattern and PatternSet: the content of a VQI's Pattern Panel.

A *pattern* is a small connected graph shown to the user as a reusable
building block for visual query formulation.  Patterns of size at most
``BASIC_SIZE_THRESHOLD`` are *basic* (edge, 2-path, triangle — generic
topologies every user knows); larger ones are *canned* and must be
mined from the data (the NP-hard selection problem CATAPULT and TATTOO
solve).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import BudgetError, GraphError
from repro.graph.graph import Graph
from repro.graph.operations import is_connected
from repro.matching.canonical import canonical_code

#: patterns with at most this many nodes are "basic" (paper: z <= 3)
BASIC_SIZE_THRESHOLD = 3


class Pattern:
    """An immutable-by-convention canned or basic pattern.

    Parameters
    ----------
    graph:
        The pattern structure; must be connected and non-empty.
    source:
        Free-form provenance tag (e.g. ``"catapult:cluster3"``).
    """

    __slots__ = ("graph", "source", "_code")

    def __init__(self, graph: Graph, source: str = "") -> None:
        if graph.order() == 0:
            raise GraphError("a pattern cannot be empty")
        if not is_connected(graph):
            raise GraphError("a pattern must be connected")
        self.graph = graph
        self.source = source
        self._code: Optional[str] = None

    @property
    def code(self) -> str:
        """Canonical code (computed lazily, cached)."""
        if self._code is None:
            self._code = canonical_code(self.graph)
        return self._code

    def order(self) -> int:
        return self.graph.order()

    def size(self) -> int:
        return self.graph.size()

    @property
    def is_basic(self) -> bool:
        """True for generic small patterns (size <= z)."""
        return self.graph.order() <= BASIC_SIZE_THRESHOLD

    @property
    def is_canned(self) -> bool:
        return not self.is_basic

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        kind = "basic" if self.is_basic else "canned"
        return (f"<Pattern {kind} n={self.order()} m={self.size()}"
                f" source={self.source!r}>")


class PatternBudget:
    """Budget ``b`` for a Pattern Panel (paper §2.2/§2.3).

    Parameters
    ----------
    max_patterns:
        Number of canned patterns the panel can display.
    min_size, max_size:
        Permissible pattern size range, in nodes.
    """

    __slots__ = ("max_patterns", "min_size", "max_size")

    def __init__(self, max_patterns: int, min_size: int = 4,
                 max_size: int = 12) -> None:
        if max_patterns < 1:
            raise BudgetError("budget must allow at least one pattern")
        if not (1 <= min_size <= max_size):
            raise BudgetError(
                f"invalid size range [{min_size}, {max_size}]")
        self.max_patterns = max_patterns
        self.min_size = min_size
        self.max_size = max_size

    def admits(self, graph: Graph) -> bool:
        """True iff the graph's node count is within the size range."""
        return self.min_size <= graph.order() <= self.max_size

    def _key(self) -> Tuple[int, int, int]:
        return (self.max_patterns, self.min_size, self.max_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternBudget):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"PatternBudget(max_patterns={self.max_patterns}, "
                f"min_size={self.min_size}, max_size={self.max_size})")


class PatternSet:
    """An ordered, duplicate-free collection of patterns.

    Deduplication is by canonical code, so two isomorphic patterns
    cannot coexist in the set regardless of node numbering.
    """

    def __init__(self, patterns: Iterable[Pattern] = ()) -> None:
        self._patterns: List[Pattern] = []
        self._by_code: Dict[str, Pattern] = {}
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: Pattern) -> bool:
        """Add a pattern; returns False if an isomorphic one exists."""
        if pattern.code in self._by_code:
            return False
        self._by_code[pattern.code] = pattern
        self._patterns.append(pattern)
        return True

    def remove(self, pattern: Pattern) -> bool:
        """Remove a pattern (by isomorphism class); False if absent."""
        existing = self._by_code.pop(pattern.code, None)
        if existing is None:
            return False
        self._patterns.remove(existing)
        return True

    def replace(self, old: Pattern, new: Pattern) -> bool:
        """Swap ``old`` for ``new`` preserving position; False on failure.

        Fails (without modification) if ``old`` is absent or ``new`` is
        already present.
        """
        if old.code not in self._by_code or new.code in self._by_code:
            return False
        existing = self._by_code.pop(old.code)
        index = self._patterns.index(existing)
        self._patterns[index] = new
        self._by_code[new.code] = new
        return True

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern.code in self._by_code

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __getitem__(self, index: int) -> Pattern:
        return self._patterns[index]

    def codes(self) -> List[str]:
        return [p.code for p in self._patterns]

    def graphs(self) -> List[Graph]:
        return [p.graph for p in self._patterns]

    def basic(self) -> "PatternSet":
        return PatternSet(p for p in self._patterns if p.is_basic)

    def canned(self) -> "PatternSet":
        return PatternSet(p for p in self._patterns if p.is_canned)

    def copy(self) -> "PatternSet":
        return PatternSet(self._patterns)

    def sizes(self) -> List[Tuple[int, int]]:
        """(nodes, edges) per pattern, in display order."""
        return [(p.order(), p.size()) for p in self._patterns]

    def __repr__(self) -> str:
        return f"<PatternSet k={len(self._patterns)}>"
