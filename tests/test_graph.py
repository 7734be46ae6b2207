import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdf.graph import (
    ParseError,
    WeightedGraph,
    _BLOCK_ROWS,
    load_edge_list,
    sign_split,
    write_edge_list,
)
from mmdf.modularity import fuzzy_weighted_modularity


def test_construction_rejects_asymmetry():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        WeightedGraph(m)


def test_sampler_path_keeps_every_other_check():
    # the sampler's path skips only the exact-symmetry test
    assert WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]), _exact_symmetric=True).n == 2
    for bad, message in ((np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
                         (np.eye(2), "diagonal"),
                         (np.zeros((2, 3)), "square")):
        with pytest.raises(ValueError, match=message):
            WeightedGraph(bad, _exact_symmetric=True)


def test_len_is_the_node_count():
    assert len(WeightedGraph(np.zeros((5, 5)))) == 5
    assert len(WeightedGraph(np.zeros((0, 0)))) == 0


def test_construction_rejects_self_edges():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        WeightedGraph(m)


def test_construction_rejects_nonfinite():
    m = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        WeightedGraph(m)


def test_weights_are_immutable():
    g = WeightedGraph(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


SPREAD_WEIGHT = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
              st.floats(1e-300, 1e300)),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(SPREAD_WEIGHT, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
           st.integers(0, n * (n - 1) // 2 - 1))),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_peak_is_the_largest_magnitude_and_any_nonfinite_entry_is_refused(case, bad):
    # the peak comes from the two extremes, and Python's max(x, nan) is
    # x: whichever extreme a NaN or an infinity lands in must fail
    n, upper, at = case
    iu = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[iu] = upper
    w += w.T
    assert WeightedGraph(w).peak == np.abs(w).max(initial=0.0)
    i, j = iu[0][at], iu[1][at]
    w[i, j] = w[j, i] = bad
    with pytest.raises(ValueError, match="^adjacency contains non-finite entries$"):
        WeightedGraph(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(SPREAD_WEIGHT, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_construction_copies_and_equality_is_a_reflexive_bool(case):
    # a graph keeps a read-only copy: the caller's array stays writable and
    # unchanged, and later writes to it reach no graph; == compares by value
    # and is a bool
    n, upper = case
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = upper
    w += w.T
    before = w.copy()
    made = WeightedGraph(w)
    assert w.flags.writeable and np.array_equal(w, before)
    assert not made.weights.flags.writeable
    w += 1
    assert (made == made) is True and (made == WeightedGraph(before)) is True
    assert (made == None) is False  # noqa: E711
    with pytest.raises(TypeError, match="unhashable"):
        hash(made)


class TestLoader:
    def test_single_record(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 3.5\n")
        g = load_edge_list(path)
        assert g.n == 2
        assert g.weights[0, 1] == 3.5
        assert g.weights[1, 0] == 3.5

    def test_weight_defaults_to_one(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b\nb c 2\n")
        g = load_edge_list(path)
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 2] == 2.0
        assert g.node_labels == ("a", "b", "c")

    def test_self_edge_dropped_and_its_node_registered(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 3\n3 3 9\n")
        g = load_edge_list(path)
        assert g.node_labels == ("1", "2", "3")
        assert np.array_equal(g.weights, [[0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 1.5\n2 1 2.5\n")
        g = load_edge_list(path)
        assert np.array_equal(g.weights, [[0.0, 4.0], [4.0, 0.0]])

    def test_comments_and_header_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\nsrc dst weight\n1 2 1\n")
        assert load_edge_list(path).n == 2

    def test_a_first_record_of_four_fields_is_not_a_header(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b c d\n1 2 1\n2 3 1\n")
        with pytest.raises(ParseError, match="got 4") as exc:
            load_edge_list(path)
        assert exc.value.line_no == 1

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1,2,0.5\n")
        assert load_edge_list(path).weights[0, 1] == 0.5

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 1\n1 2 zzz\n")
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(path)

    def test_nonfinite_weight_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        for token in ("nan", "inf", "-inf"):
            path.write_text(f"1 2 1\n# comment\n2 3 {token}\n")
            with pytest.raises(ParseError, match="non-finite") as exc:
                load_edge_list(path)
            assert exc.value.line_no == 3

    def test_roster_fixes_order_and_keeps_isolated_nodes(self, tmp_path):
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        edges.write_text("beta gamma 2\n")
        labels.write_text("alpha\nbeta\ngamma\n")
        g = load_edge_list(edges, labels_path=labels)
        assert g.node_labels == ("alpha", "beta", "gamma")
        assert np.array_equal(g.weights, [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 2.0, 0.0]])

    def test_roster_accepts_one_based_indices(self, tmp_path):
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        edges.write_text("1 3 -2\n")
        labels.write_text("alpha\nbeta\ngamma\n")
        g = load_edge_list(edges, labels_path=labels)
        assert g.weights[0, 2] == -2.0

    def test_unknown_name_with_roster_fails(self, tmp_path):
        edges = tmp_path / "g.edges"
        labels = tmp_path / "g.labels"
        edges.write_text("alpha delta 1\n")
        labels.write_text("alpha\nbeta\n")
        with pytest.raises(ParseError, match="delta"):
            load_edge_list(edges, labels_path=labels)


def test_round_trip_exact(tmp_path, rng):
    n = 12
    w = np.round(rng.normal(size=(n, n)) * 10, 3)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    w[rng.random((n, n)) < 0.3] = 0.0
    w = np.triu(w, 1) + np.triu(w, 1).T
    g = WeightedGraph(w)
    edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
    write_edge_list(g, edges, labels_path=labels)
    reloaded = load_edge_list(edges, labels_path=labels)
    assert np.array_equal(reloaded.weights, g.weights)


def test_round_trip_needs_the_roster_for_isolated_nodes(tmp_path):
    # nodes 3 and 4 have no edge, so no record names them: the bare edge
    # list reloads 2 of the 4 nodes, and with the roster all 4 come back
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 2.5
    edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
    write_edge_list(WeightedGraph(w), edges)
    assert load_edge_list(edges) == WeightedGraph(w[:2, :2], ("1", "2"))
    write_edge_list(WeightedGraph(w), edges, labels_path=labels)
    assert load_edge_list(edges, labels_path=labels) == WeightedGraph(w, ("1", "2", "3", "4"))


# label text that load_edge_list reads back: no whitespace, '#', ',' or
# lone surrogate
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="#,"))
READABLE_LABEL = _TEXT.filter(lambda s: s != "" and not any(c.isspace() for c in s))


@settings(max_examples=60, deadline=None)
@given(st.lists(READABLE_LABEL, min_size=1, max_size=8, unique=True), st.integers(0, 2**32 - 1))
def test_round_trip_over_label_text(labels, seed):
    n = len(labels)
    rng = np.random.default_rng(seed)
    w = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7), 1)
    g = WeightedGraph(w + w.T, tuple(labels))
    with tempfile.TemporaryDirectory() as d:
        edges, roster = Path(d) / "g.edges", Path(d) / "g.labels"
        write_edge_list(g, edges, labels_path=roster)
        reloaded = load_edge_list(edges, labels_path=roster)
    assert reloaded.node_labels == g.node_labels
    assert np.array_equal(reloaded.weights, g.weights)


def assert_rejected_before_any_write(names, culprit):
    g = WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), names)
    with tempfile.TemporaryDirectory() as d:
        with pytest.raises(ValueError, match=re.escape(repr(culprit))):
            write_edge_list(g, Path(d) / "g.edges", labels_path=Path(d) / "g.labels")
        assert list(Path(d).iterdir()) == []


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda a, c, b: a + c + b, _TEXT,
                 st.sampled_from("#, \t\n\r\x0b\x1c\x85\xa0\u2028\u3000\ud800\udfff"), _TEXT))
def test_label_with_unreadable_character_rejected(bad):
    assert_rejected_before_any_write((bad, "ok"), bad)


@pytest.mark.parametrize("names,culprit", [(("ok", ""), ""), (("ok", "ok"), "ok")])
def test_empty_or_repeated_label_rejected(names, culprit):
    assert_rejected_before_any_write(names, culprit)


def dense_parts(w: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """max(0, W) and max(0, -W) scaled by 2**shift, as dense matrices."""
    return np.ldexp(np.maximum(w, 0.0), shift), np.ldexp(np.maximum(-w, 0.0), shift)


def split_shift(g: WeightedGraph) -> int:
    """The shift that brings the graph's peak into [1, 2)."""
    return 1 - int(np.frexp(g.peak)[1])


def masses(degrees: np.ndarray) -> tuple[float, float]:
    return tuple(float(d.sum() / 2.0) for d in degrees)


class TestSignSplit:
    def test_pure_negative(self):
        w = np.array([[0.0, -2.0], [-2.0, 0.0]])
        g = WeightedGraph(w)
        degrees, [(pos, neg)] = sign_split(g, [np.eye(2)])
        assert np.all(pos == 0)
        assert neg[0, 1] == 1.0  # the largest |weight| is scaled into [1, 2)
        assert np.array_equal(degrees[1], neg.sum(axis=1))
        assert masses(degrees)[0] == 0.0
        assert np.ldexp(masses(degrees)[1], -split_shift(g)) == 2.0

    def test_pure_positive(self):
        g = WeightedGraph(np.array([[0.0, 3.0], [3.0, 0.0]]))
        degrees, products = sign_split(g)
        assert products == []
        assert np.ldexp(masses(degrees)[0], -split_shift(g)) == 3.0
        assert masses(degrees)[1] == 0.0

    def test_mixed_hand_sum(self):
        w = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        degrees, _ = sign_split(WeightedGraph(w))
        # by hand: one positive pair and one negative pair, each mass 1
        assert masses(degrees) == (1.0, 1.0)
        assert np.array_equal(degrees, [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        value = fuzzy_weighted_modularity(WeightedGraph(w), np.eye(3))
        assert (value.pos_weight, value.neg_weight) == (0.5, 0.5)

    def test_reconstruction_and_disjoint_support(self, rng):
        # one block up to 128 nodes, two blocks of the entry budget just
        # above, and _BLOCK_ROWS-row blocks with a partial one from 256:
        # products with the identity are the scaled parts themselves
        for n in (77, 133, 4 * _BLOCK_ROWS + 5):
            w = rng.normal(size=(n, n))
            w = w + w.T
            np.fill_diagonal(w, 0.0)
            g = WeightedGraph(w)
            m = rng.dirichlet(np.ones(3), size=n)
            degrees, [(pos, neg), products] = sign_split(g, [np.eye(n), m])
            dense_pos, dense_neg = dense_parts(w, split_shift(g))
            assert np.array_equal(pos, dense_pos) and np.array_equal(neg, dense_neg)
            assert np.array_equal(pos - neg, np.ldexp(w, split_shift(g)))
            assert np.all(pos * neg == 0.0)
            assert np.array_equal(degrees, [pos.sum(axis=1), neg.sum(axis=1)])
            assert np.allclose(products, [pos @ m, neg @ m], rtol=1e-12, atol=0.0)
