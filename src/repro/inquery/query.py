"""INQUERY's structured query language.

Queries are terms combined by inference-network operators::

    #sum( information retrieval )
    #and( persistent #or( object store ) )
    #wsum( 2.0 legal 1.0 #phrase( supreme court ) )
    #not( relational )

Grammar::

    query   := node+                       (an implicit #sum at top level)
    node    := TERM | '#' NAME '(' body ')'
    body    := node+                       (for most operators)
             | (WEIGHT node)+              (for #wsum)

"As queries are parsed by INQUERY, a tree is constructed that represents
the query in an internal form."  The tree built here is what the engine's
reservation pass scans before evaluation.
"""

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from ..errors import QueryError

#: Operators taking plain child lists.
OPERATORS = frozenset(
    {"sum", "and", "or", "not", "max", "phrase", "uw", "od", "syn", "wsum"}
)

_TOKEN = re.compile(r"#\w+|\(|\)|[^\s()#]+")


@dataclass(frozen=True)
class TermNode:
    """A leaf: one query term (stemmed at evaluation time)."""

    term: str


@dataclass(frozen=True)
class OpNode:
    """An operator over child nodes.

    ``weights`` is populated only for ``#wsum``; ``window`` only for
    ``#uwN`` (unordered window) and ``#phrase`` (window 1 + order).
    """

    op: str
    children: Tuple["QueryNode", ...]
    weights: Tuple[float, ...] = ()
    window: int = 0


QueryNode = Union[TermNode, OpNode]


def parse_query(text: str) -> QueryNode:
    """Parse query text into a tree; bare term lists become ``#sum``.

    Raises
    ------
    QueryError
        On empty input, unbalanced parentheses, unknown operators, or
        malformed ``#wsum`` weights (including a non-positive sum: no
        engine ever holds a tree it cannot evaluate).
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise QueryError("empty query")
    parser = _Parser(tokens)
    nodes = parser.parse_nodes(top_level=True)
    if parser.peek() is not None:
        raise QueryError(f"unexpected token {parser.peek()!r}")
    if not nodes:
        raise QueryError("query has no terms")
    if len(nodes) == 1:
        return nodes[0]
    return OpNode(op="sum", children=tuple(nodes))


class _Parser:
    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._pos += 1
        return token

    def parse_nodes(self, top_level: bool = False) -> List[QueryNode]:
        nodes: List[QueryNode] = []
        while True:
            token = self.peek()
            if token is None or token == ")":
                return nodes
            nodes.append(self.parse_node())

    def parse_node(self) -> QueryNode:
        token = self.take()
        if token.startswith("#"):
            return self._parse_operator(token[1:].lower())
        if token in ("(", ")"):
            raise QueryError(f"misplaced {token!r}")
        return TermNode(term=token.lower())

    def _parse_operator(self, name: str) -> OpNode:
        window = 0
        if name.startswith("uw") and name[2:].isdigit():
            window = int(name[2:])
            name = "uw"
        elif name.startswith("od") and name[2:].isdigit():
            window = int(name[2:])
            name = "od"
        if name not in OPERATORS:
            raise QueryError(f"unknown operator #{name}")
        if self.take() != "(":
            raise QueryError(f"expected '(' after #{name}")
        if name == "wsum":
            weights, children = self._parse_weighted_body()
            node = OpNode(op="wsum", children=tuple(children), weights=tuple(weights))
        else:
            children = self.parse_nodes()
            node = OpNode(op=name, children=tuple(children), window=window)
        if self.take() != ")":
            raise QueryError(f"expected ')' closing #{name}")
        if not node.children:
            raise QueryError(f"#{name} has no arguments")
        if name == "not" and len(node.children) != 1:
            raise QueryError("#not takes exactly one argument")
        if name == "wsum" and sum(node.weights) <= 0:
            raise QueryError("#wsum weights must sum to a positive value")
        if name in ("phrase", "uw", "od", "syn") and not all(
            isinstance(c, TermNode) for c in node.children
        ):
            raise QueryError(f"#{name} takes only plain terms")
        if name in ("uw", "od") and window < 1:
            raise QueryError(f"#{name} needs a window, e.g. #{name}3( ... )")
        return node

    def _parse_weighted_body(self) -> Tuple[List[float], List[QueryNode]]:
        weights: List[float] = []
        children: List[QueryNode] = []
        while True:
            token = self.peek()
            if token is None or token == ")":
                if len(weights) != len(children):
                    raise QueryError("#wsum needs a weight before each argument")
                return weights, children
            try:
                weights.append(float(self.take()))
            except ValueError:
                raise QueryError(
                    "#wsum arguments must alternate weight then node"
                ) from None
            if self.peek() in (None, ")"):
                raise QueryError("#wsum weight without a following node")
            children.append(self.parse_node())


def query_terms(node: QueryNode) -> Iterator[str]:
    """Every term mentioned in the tree (with repeats), in query order.

    This is what the engine's reservation pass walks: "Before the query
    tree is processed, we quickly scan the tree and reserve any objects
    required by the query that are already resident."
    """
    if isinstance(node, TermNode):
        yield node.term
        return
    for child in node.children:
        yield from query_terms(child)


def count_nodes(node: QueryNode) -> int:
    """Total nodes in the tree (drives the per-node CPU charge)."""
    if isinstance(node, TermNode):
        return 1
    return 1 + sum(count_nodes(child) for child in node.children)


def format_query(node: QueryNode) -> str:
    """Render a tree back to query-language text (round-trippable)."""
    if isinstance(node, TermNode):
        return node.term
    if node.op == "wsum":
        inner = " ".join(
            f"{w:g} {format_query(c)}" for w, c in zip(node.weights, node.children)
        )
        return f"#wsum( {inner} )"
    if node.op in ("uw", "od"):
        name = f"{node.op}{node.window}"
    else:
        name = node.op
    inner = " ".join(format_query(c) for c in node.children)
    return f"#{name}( {inner} )"
