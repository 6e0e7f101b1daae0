"""Tree structures, text round-trips, baselines, and CKY decoding."""

import numpy as np
import pytest

from mmgi.decode import cky_decode
from mmgi.errors import DataValidationError
from mmgi.trees import (baseline_tree, bracket_set, format_interval,
                        leaf_count, left_branching, parse_interval,
                        parse_sexpr, random_tree, right_branching, to_sexpr,
                        tree_spans)

from .oracles import (catalan, chart_tables, enumerate_binary_trees, local_score, naive_cky,
                      tree_total)


def test_bracket_sets_of_chain_trees():
    assert bracket_set(right_branching(3)) == {(2, 3), (1, 3)}
    assert bracket_set(left_branching(3)) == {(1, 2), (1, 3)}
    assert bracket_set(right_branching(1)) == frozenset()


def test_tree_spans_counts():
    tree = ((1, 2), ((3, 4), 5))
    assert leaf_count(tree) == 5
    assert len(tree_spans(tree)) == 4  # n - 1 internal nodes


def test_random_tree_reproducible():
    a = random_tree(7, np.random.default_rng(3))
    b = random_tree(7, np.random.default_rng(3))
    assert a == b
    assert leaf_count(a) == 7
    assert baseline_tree(5, "random", seed=9) == baseline_tree(5, "random", seed=9)


def test_baseline_kinds():
    assert baseline_tree(3, "right") == (1, (2, 3))
    assert baseline_tree(3, "left") == ((1, 2), 3)
    with pytest.raises(ValueError):
        baseline_tree(0, "left")
    with pytest.raises(ValueError):
        baseline_tree(3, "spiral")


def test_sexpr_roundtrip_tokens():
    tree = ((1, 2), (3, (4, 5)))
    text = to_sexpr(tree, ["the", "cat", "sat", "on", "mats"])
    assert text == "((the cat) (sat (on mats)))"
    parsed, leaves = parse_sexpr(text)
    assert parsed == tree
    assert leaves == ["the", "cat", "sat", "on", "mats"]


def test_sexpr_single_leaf():
    tree, leaves = parse_sexpr("hello")
    assert tree == 1 and leaves == ["hello"]


def test_sexpr_rejects_nonbinary_and_unbalanced():
    with pytest.raises(DataValidationError):
        parse_sexpr("(a b c)")
    with pytest.raises(DataValidationError):
        parse_sexpr("((a b)")
    with pytest.raises(DataValidationError):
        parse_sexpr("")


@pytest.mark.parametrize("text, message", [
    (")", "unexpected '\\)'"), (") (a b)", "unexpected '\\)'"),
    ("(a b) c", "trailing content"), ("(a b))", "trailing content"),
    ("a b", "trailing content")])
def test_sexpr_rejects_stray_closers_and_trailing_content(text, message):
    with pytest.raises(DataValidationError, match=message):
        parse_sexpr(text)


def test_sexpr_splits_on_any_whitespace_and_brackets():
    tree, leaves = parse_sexpr("\t( (a\u00a0b)c )\n")
    assert tree == ((1, 2), 3) and leaves == ["a", "b", "c"]


def test_interval_leaves_roundtrip():
    token = format_interval(0.25, 1.5)
    assert parse_interval(token) == (0.25, 1.5)
    with pytest.raises(DataValidationError):
        parse_interval("nonsense")


# ---------------------------------------------------------------------------
# CKY


def _random_tables(rng, n):
    splits = {}
    spans = {}
    for i in range(1, n + 1):
        spans[(i, i)] = 0.0
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            splits[(i, j)] = rng.normal(size=j - i)
            spans[(i, j)] = float(rng.normal())
    return splits, spans


def _decode(splits, spans, n):
    return cky_decode(*chart_tables(splits, spans, n), n)


def test_cky_trivial_cases():
    assert cky_decode({}, np.zeros(1), 1) == (1, 0.0)
    splits = {2: np.array([[0.7]])}
    spans = np.array([0.0, 0.0, 0.7])
    tree, score = cky_decode(splits, spans, 2)
    assert tree == (1, 2)
    with pytest.raises(ValueError):
        cky_decode({}, np.zeros(0), 0)


def test_cky_rejects_tables_of_the_wrong_shape():
    splits, spans = chart_tables(*_random_tables(np.random.default_rng(1), 4), 4)
    bad = {**splits, 3: splits[3][:, :1]}
    with pytest.raises(ValueError, match=r"length 3: .*\(2, 1\).*\(2, 2\)"):
        cky_decode(bad, spans, 4)
    with pytest.raises(ValueError, match=r"\(9,\).*\(10,\)"):
        cky_decode(splits, spans[:-1], 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_cky_matches_exhaustive_enumeration(n):
    rng = np.random.default_rng(100 + n)
    splits, spans = _random_tables(rng, n)
    tree, score = _decode(splits, spans, n)

    def local(i, k, j):
        return local_score(splits, spans, i, k, j)

    all_trees = list(enumerate_binary_trees(1, n))
    assert len(all_trees) == catalan(n - 1)
    best = max(tree_total(t, local) for t in all_trees)
    assert score == best  # exact float equality
    assert tree_total(tree, local) == best


@pytest.mark.parametrize("n", range(9, 25))
def test_cky_matches_scalar_oracle_on_long_sentences(n):
    splits, spans = _random_tables(np.random.default_rng(300 + n), n)
    tree, score = _decode(splits, spans, n)
    assert (tree, score) == naive_cky(splits, spans, n)


def _tied_tables(rng, n):
    """Integer-valued tables with few distinct values, so splits tie often."""
    splits = {}
    spans = {(i, i): 0.0 for i in range(1, n + 1)}
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            splits[(i, i + length - 1)] = rng.integers(-2, 3, size=length - 1).astype(float)
            spans[(i, i + length - 1)] = float(rng.integers(-1, 2))
    return splits, spans


@pytest.mark.parametrize("n", [2, 5, 9, 16, 24])
def test_cky_ties_match_scalar_oracle(n):
    for seed in range(5):
        splits, spans = _tied_tables(np.random.default_rng(700 + 31 * n + seed), n)
        assert _decode(splits, spans, n) == naive_cky(splits, spans, n)


def test_cky_all_equal_scores_left_branching():
    for n in (6, 9, 16, 24):
        splits = {}
        spans = {}
        for i in range(1, n + 1):
            spans[(i, i)] = 0.0
        for length in range(2, n + 1):
            for i in range(1, n - length + 2):
                j = i + length - 1
                splits[(i, j)] = np.zeros(j - i)
                spans[(i, j)] = 0.0
        tree, score = _decode(splits, spans, n)
        assert tree == left_branching(n)
        assert (tree, score) == naive_cky(splits, spans, n)


def test_cky_prefers_planted_split():
    # an outsized local score at (1,3)/(4,4) must appear in the tree
    n = 4
    rng = np.random.default_rng(0)
    splits, spans = _random_tables(rng, n)
    splits[(1, 4)] = np.array([0.0, 0.0, 50.0])  # k = 3
    tree, _ = _decode(splits, spans, n)
    assert (1, 3) in bracket_set(tree)
