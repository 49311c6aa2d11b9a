import numpy as np
import pytest

from fedgeo import CsvFormatError, load_graph_csv, planted_partition_graph, save_graph_csv
from fedgeo.graphs import make_graph


def _paths(tmp_path):
    return (
        tmp_path / "edges.csv",
        tmp_path / "features.csv",
        tmp_path / "labels.csv",
        tmp_path / "splits.csv",
    )


def _write(tmp_path, edges, features, labels, splits):
    e, f, l, s = _paths(tmp_path)
    e.write_text(edges)
    f.write_text(features)
    l.write_text(labels)
    s.write_text(splits)
    return e, f, l, s


def test_round_trip_is_bitwise(tmp_path):
    g = planted_partition_graph(
        n_blocks=3, block_size=12, p_in=0.4, p_out=0.1,
        n_classes=3, feature_dim=5, class_sep=1.3, seed=2,
    )
    paths = _paths(tmp_path)
    save_graph_csv(g, *paths)
    h = load_graph_csv(*paths)
    np.testing.assert_array_equal(g.edges, h.edges)
    np.testing.assert_array_equal(g.features, h.features)  # repr round-trips floats
    np.testing.assert_array_equal(g.labels, h.labels)
    np.testing.assert_array_equal(g.train_mask, h.train_mask)
    np.testing.assert_array_equal(g.val_mask, h.val_mask)
    np.testing.assert_array_equal(g.test_mask, h.test_mask)


def test_load_small_graph(tmp_path):
    paths = _write(
        tmp_path,
        edges="0,1\n1,2\n",
        features="1.0,0.0\n0.0,1.0\n0.5,0.5\n",
        labels="0\n1\n1\n",
        splits="train\nval\ntest\n",
    )
    g = load_graph_csv(*paths)
    assert g.n_nodes == 3
    assert g.n_edges == 2
    np.testing.assert_array_equal(g.labels, [0, 1, 1])
    assert g.train_mask.tolist() == [True, False, False]
    assert g.test_mask.tolist() == [False, False, True]


def test_feature_column_mismatch_names_line(tmp_path):
    paths = _write(tmp_path, "0,1\n", "1.0,2.0\n3.0\n", "0\n0\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "features.csv:2" in str(err.value)


def test_non_numeric_feature_names_line(tmp_path):
    # a non-finite value is no feature either: it would only surface
    # later as a training divergence blamed on a client
    for bad in ("x", "nan", "inf", "1e999"):
        paths = _write(tmp_path, "0,1\n", f"1.0,2.0\n{bad},4.0\n", "0\n0\n", "train\ntrain\n")
        with pytest.raises(CsvFormatError) as err:
            load_graph_csv(*paths)
        assert "features.csv:2" in str(err.value)


def test_label_count_mismatch(tmp_path):
    paths = _write(tmp_path, "0,1\n", "1.0\n2.0\n", "0\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "labels.csv" in str(err.value)


def test_negative_label_rejected(tmp_path):
    paths = _write(tmp_path, "0,1\n", "1.0\n2.0\n", "0\n-1\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "labels.csv:2" in str(err.value)


def test_unknown_split_token(tmp_path):
    paths = _write(tmp_path, "0,1\n", "1.0\n2.0\n", "0\n0\n", "train\nvalidation\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "splits.csv:2" in str(err.value)


def test_edge_out_of_range_and_self_loop(tmp_path):
    paths = _write(tmp_path, "0,5\n", "1.0\n2.0\n", "0\n0\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "edges.csv:1" in str(err.value)

    paths = _write(tmp_path, "1,1\n", "1.0\n2.0\n", "0\n0\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "edges.csv:1" in str(err.value)
    assert "self-loop" in str(err.value)


def test_edge_arity_error(tmp_path):
    paths = _write(tmp_path, "0,1,2\n", "1.0\n2.0\n", "0\n0\n", "train\ntrain\n")
    with pytest.raises(CsvFormatError) as err:
        load_graph_csv(*paths)
    assert "edges.csv:1" in str(err.value)


def test_save_rejects_unassigned_node(tmp_path):
    # the split format has no token for "in no split"
    g = make_graph(
        2, np.array([[0, 1]]),
        train_mask=np.array([True, False]),
        val_mask=np.array([False, False]),
        test_mask=np.array([False, False]),
    )
    with pytest.raises(CsvFormatError) as err:
        save_graph_csv(g, *_paths(tmp_path))
    assert "no split" in str(err.value)
