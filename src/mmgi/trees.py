"""Binary constituency trees: structure, bracket sets, text I/O, baselines.

A tree is either a leaf (its 1-based position, an int) or a 2-tuple of
subtrees; every internal node therefore has exactly two children. Leaf
payloads (surface tokens, or clip intervals for speech trees) live outside
the structure and are paired with leaves by position.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DataValidationError

__all__ = [
    "Tree",
    "leaf_count",
    "tree_spans",
    "bracket_set",
    "left_branching",
    "right_branching",
    "random_tree",
    "baseline_tree",
    "to_sexpr",
    "parse_sexpr",
    "format_interval",
    "parse_interval",
]

Tree = int | tuple  # leaf position, or (left, right)


def leaf_count(tree: Tree) -> int:
    if isinstance(tree, int):
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


def tree_spans(tree: Tree) -> list[tuple[int, int]]:
    """(i, j) spans of the internal nodes, 1-based inclusive."""
    spans: list[tuple[int, int]] = []

    def walk(node: Tree) -> tuple[int, int]:
        if isinstance(node, int):
            return node, node
        li, lj = walk(node[0])
        ri, rj = walk(node[1])
        if ri != lj + 1:
            raise DataValidationError(f"leaves out of order at span ({li}, {rj})")
        spans.append((li, rj))
        return li, rj

    walk(tree)
    return spans


def bracket_set(tree: Tree) -> frozenset[tuple[int, int]]:
    """Internal-node spans covering at least two leaves (trivial spans dropped)."""
    return frozenset(s for s in tree_spans(tree) if s[1] - s[0] >= 1)


def left_branching(n: int, start: int = 1) -> Tree:
    tree: Tree = start
    for leaf in range(start + 1, start + n):
        tree = (tree, leaf)
    return tree


def right_branching(n: int, start: int = 1) -> Tree:
    tree: Tree = start + n - 1
    for leaf in range(start + n - 2, start - 1, -1):
        tree = (leaf, tree)
    return tree


def random_tree(n: int, rng: np.random.Generator, start: int = 1) -> Tree:
    """Random binary tree built by choosing each split point uniformly."""
    if n == 1:
        return start
    k = int(rng.integers(0, n - 1))  # left child takes leaves [0, k] of this span
    left = random_tree(k + 1, rng, start)
    right = random_tree(n - k - 1, rng, start + k + 1)
    return (left, right)


def baseline_tree(n: int, kind: str, seed: int = 0) -> Tree:
    if n < 1:
        raise ValueError("baseline_tree needs n >= 1")
    if kind == "left":
        return left_branching(n)
    if kind == "right":
        return right_branching(n)
    if kind == "random":
        return random_tree(n, np.random.default_rng(seed))
    raise ValueError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# text format: one bracketed s-expression per line


def to_sexpr(tree: Tree, leaves: list[str] | None = None) -> str:
    def render(node: Tree) -> str:
        if isinstance(node, int):
            return leaves[node - 1] if leaves is not None else str(node - 1)
        return f"({render(node[0])} {render(node[1])})"

    return render(tree)


def parse_sexpr(text: str) -> tuple[Tree, list[str]]:
    """Parse one bracketed line; returns the tree and leaf payload strings."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    if not tokens:
        raise DataValidationError("empty tree line")

    pos = 0
    leaves: list[str] = []

    def parse() -> Tree:
        nonlocal pos
        if tokens[pos] == "(":
            pos += 1
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                children.append(parse())
            if pos >= len(tokens):
                raise DataValidationError("unbalanced parentheses in tree line")
            pos += 1  # consume ")"
            if len(children) != 2:
                raise DataValidationError(
                    f"node has {len(children)} children; trees must be binary"
                )
            return (children[0], children[1])
        if tokens[pos] == ")":
            raise DataValidationError("unexpected ')' in tree line")
        leaves.append(tokens[pos])
        pos += 1
        return len(leaves)

    tree = parse()
    if pos != len(tokens):
        raise DataValidationError("trailing content after tree")
    return tree, leaves


def format_interval(start: float, end: float) -> str:
    return f"{start:.6g}:{end:.6g}"


def parse_interval(token: str) -> tuple[float, float]:
    try:
        start, end = token.split(":")
        return float(start), float(end)
    except ValueError as exc:
        raise DataValidationError(f"bad clip interval leaf {token!r}") from exc
