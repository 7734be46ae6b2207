import numpy as np
import pytest

from mmdf.datasets import DATASETS, DatasetMissing, available_datasets, load_dataset


# fixture integrity: node count, edge count, extreme weights
FIXTURE_STATS = {
    "gahuku-gama": (16, 58, 1.0, -1.0),
    "karate": (34, 78, 7.0, 0.0),
    "slovene-parties": (10, 45, 235.0, -254.0),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_STATS))
def test_fixture_checksums(name):
    ds = load_dataset(name)
    n, edges, w_max, w_min = FIXTURE_STATS[name]
    assert ds.graph.n == n
    assert np.count_nonzero(np.triu(ds.graph.weights, 1)) == edges
    assert ds.graph.weights.max() == w_max
    assert ds.graph.weights.min() == w_min


def test_bundled_always_available():
    names = available_datasets()
    for name in FIXTURE_STATS:
        assert name in names


def test_gahuku_labels_and_truth():
    ds = load_dataset("gahuku-gama")
    assert ds.graph.node_labels[0] == "GAVEV"
    assert ds.graph.node_labels[-1] == "GAMA"
    assert ds.truth is not None
    assert max(ds.truth) + 1 == 3
    assert len(ds.truth) == 16


def test_karate_truth_sizes():
    ds = load_dataset("karate")
    counts = np.bincount(ds.truth)
    assert counts.sum() == 34
    assert ds.info.true_k == 2


def test_slovene_has_no_hard_truth():
    ds = load_dataset("slovene-parties")
    assert ds.truth is None
    assert ds.graph.node_labels == ("SKD", "ZLSD", "SDSS", "LDS", "ZS-ESS", "ZS", "DS", "SLS", "SPS-SNS", "SNS")


def test_signed_fixture_weights_are_unit():
    ds = load_dataset("gahuku-gama")
    nz = ds.graph.weights[ds.graph.weights != 0]
    assert set(np.unique(nz)) == {-1.0, 1.0}


def test_missing_dataset_raises(tmp_path):
    info = DATASETS["train-bombing"]
    assert not info.bundled
    with pytest.raises(DatasetMissing, match="fetch_datasets"):
        load_dataset("train-bombing", cache_dir=tmp_path)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        load_dataset("no-such-network")


def test_sidecars_are_read_where_they_exist(tmp_path):
    # a roster or truth file is read when present, for every registered name;
    # the roster's order, not the edge list's, numbers the nodes
    (tmp_path / "train_bombing.edges").write_text("b c\na b\n")
    (tmp_path / "train_bombing.labels").write_text("a\nb\nc\n")
    (tmp_path / "train_bombing.truth").write_text("0\n0\n1\n")
    ds = load_dataset("train-bombing", cache_dir=tmp_path)
    assert ds.graph.node_labels == ("a", "b", "c")
    assert ds.truth == (0, 0, 1)
