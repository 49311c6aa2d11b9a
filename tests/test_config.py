import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgeo import AggregatorConfig, ConfigError, ModelConfig, TrainingConfig, load_config
from fedgeo.config import KEYS, parse_config


def _load(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return load_config(str(p))


MINIMAL = "data.kind = complete\ndata.n = 6\n"


def test_defaults(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    assert cfg.rounds == 100
    assert cfg.seeds == (1, 2, 3)
    assert cfg.regime == "intra_domain"
    assert cfg.alpha == 0.3
    assert cfg.model.n_layers == 2
    assert cfg.model.hidden_dim == 16
    assert cfg.client.trainer == "fedavg"
    assert cfg.client.lr == 0.05
    assert cfg.client.epochs == 1
    assert cfg.server.mode == "plain"
    assert cfg.server.alpha == 0.9
    assert cfg.server.beta == 0.5
    assert cfg.server.epsilon == "adaptive"
    assert cfg.server.subspace_dim == 8
    assert cfg.server.window == 32
    assert cfg.server.proxy_dim is None
    assert cfg.server.weights == "uniform"
    assert cfg.server.fallback == "largest"
    assert cfg.server.reference == "raw"
    assert cfg.n_clients == 1
    assert cfg.sources[0].kind == "complete"
    assert cfg.sources[0].n == 6


def test_server_keys_set_every_aggregator_field_once():
    # and likewise the model and client sections for their owners
    for name, owner in (("server", AggregatorConfig), ("model", ModelConfig),
                        ("client", TrainingConfig)):
        targets = [KEYS[section, key][0] for section, key in KEYS if section == name]
        assert len(set(targets)) == len(targets)
        assert sorted(targets) == sorted(f.name for f in dataclasses.fields(owner))
        assert getattr(parse_config(MINIMAL), name) == owner()


def test_full_parse(tmp_path):
    cfg = _load(tmp_path, """
# exercise every section
run.name = demo
run.rounds = 7
run.seeds = 4, 5
run.out = results
run.regime = intra_domain

data.kind = planted
data.blocks = 3
data.block_size = 12
data.p_in = 0.6
data.p_out = 0.02
data.classes = 3
data.features = 5
data.class_sep = 2.0
data.clients = 4

partition.alpha = 0.1
partition.seed = 9

model.layers = 1
model.hidden = 8
model.activation = identity
model.bias = false

client.trainer = fedprox
client.lr = 0.2
client.epochs = 3
client.mu = 0.5

server.regulation = ggrs
server.alpha = 0.8
server.beta = 0.25
server.epsilon = 1.5
server.subspace_dim = 4
server.window = 16
server.proxy_dim = 64
server.weights = by_train_count
server.fallback = none
server.reference = regulated
""")
    assert cfg.name == "demo"
    assert cfg.rounds == 7
    assert cfg.seeds == (4, 5)
    assert cfg.out == "results"
    src = cfg.sources[0]
    assert (src.kind, src.blocks, src.block_size) == ("planted", 3, 12)
    assert (src.p_in, src.p_out, src.classes) == (0.6, 0.02, 3)
    assert (src.feature_dim, src.class_sep, src.clients) == (5, 2.0, 4)
    assert (cfg.alpha, cfg.partition_seed) == (0.1, 9)
    assert cfg.model == ModelConfig(n_layers=1, hidden_dim=8, activation="identity", bias=False)
    assert cfg.client == TrainingConfig(trainer="fedprox", lr=0.2, epochs=3, mu=0.5)
    srv = cfg.server
    assert srv.mode == "ggrs"
    assert (srv.alpha, srv.beta, srv.epsilon) == (0.8, 0.25, 1.5)
    assert (srv.subspace_dim, srv.window, srv.proxy_dim) == (4, 16, 64)
    assert (srv.weights, srv.fallback, srv.reference) == ("by_train_count", "none", "regulated")
    assert cfg.n_clients == 4


def test_comments_and_blank_lines(tmp_path):
    cfg = _load(tmp_path, "# header\n\ndata.kind = complete  \ndata.n = 4\n# tail\n")
    assert cfg.sources[0].n == 4


def test_error_names_file_and_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\nrun.rounds = soon\n", name="bad.conf")
    assert "bad.conf:2" in str(err.value)
    assert "integer" in str(err.value)


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\nthis is not an assignment\n")
    assert ":2" in str(err.value)


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\ndata.kind = planted\n")
    assert "duplicate" in str(err.value)


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\noptimizer.lr = 1\n")
    assert "unknown section" in str(err.value)
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\nrun.speed = fast\n")
    assert "unknown key" in str(err.value)


def test_data_section_required(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "run.rounds = 3\n")
    assert "data" in str(err.value)


def test_kind_required(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.n = 5\n")
    assert "kind" in str(err.value)


def test_numbered_sources(tmp_path):
    cfg = _load(tmp_path, """
data1.kind = complete
data1.n = 5
data1.clients = 2
data2.kind = planted
data2.clients = 3
""")
    assert len(cfg.sources) == 2
    assert cfg.sources[0].kind == "complete"
    assert cfg.sources[1].kind == "planted"
    assert cfg.n_clients == 5


def test_numbered_sources_must_be_consecutive(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data1.kind = complete\ndata3.kind = complete\n")
    assert "consecutive" in str(err.value)


def test_plain_and_numbered_sources_conflict(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = complete\ndata1.kind = complete\n")
    assert "single" in str(err.value)


def test_cross_domain_needs_two_sources(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, "run.regime = cross_domain\ndata.kind = complete\n")
    cfg = _load(tmp_path, """
run.regime = cross_domain
data1.kind = planted
data2.kind = planted
""")
    assert cfg.regime == "cross_domain"


def test_cross_domain_needs_two_layers(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, """
run.regime = cross_domain
model.layers = 1
data1.kind = planted
data2.kind = planted
""")


def test_seed_list_validation(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "run.seeds = 3\n")
    assert cfg.seeds == (3,)
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "run.seeds = 1, one\n")
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "run.seeds = 1, 1\n")
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "run.seeds =\n")


def test_negative_seeds_are_config_errors(tmp_path):
    # default_rng takes no negative seed: each is refused while parsing,
    # naming the line or section, not by numpy once a run has started
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "run.seeds = 2, -1\n")
    assert str(err.value).endswith("run.conf:3: seeds must be >= 0")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "partition.seed = -5000\n")
    assert str(err.value).endswith(
        "run.conf: partition of data: partition seed must be >= 0, got -3500")
    # every run seed's partition seeds are checked, not only the first's:
    # -1600 + 1000 * 2 + 500 >= 0, but -1600 + 1000 * 1 + 500 < 0
    with pytest.raises(ConfigError, match="got -100$"):
        _load(tmp_path, MINIMAL + "run.seeds = 2, 1\npartition.seed = -1600\n")
    assert _load(tmp_path, MINIMAL + "run.seeds = 2\npartition.seed = -1600\n").seeds == (2,)


def test_enum_validation(tmp_path):
    for bad in (
        "run.regime = federated",
        "model.activation = tanh",
        "model.layers = 3",
        "client.trainer = adam",
        "server.regulation = median",
        "server.weights = by_loss",
        "server.fallback = mean",
        "server.reference = mixed",
    ):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + bad + "\n")


def test_range_validation(tmp_path):
    for bad in (
        "run.rounds = 0",
        "partition.alpha = 0",
        "client.lr = -1",
        "client.epochs = 0",
        "client.mu = -0.5",
        "server.alpha = 1.0",
        "server.beta = -0.1",
        "server.epsilon = 0",
        "server.epsilon = soon",
        "server.subspace_dim = -1",
        "server.window = 0",
        "data.clients = 0",
    ):
        with pytest.raises(ConfigError):
            _load(tmp_path, MINIMAL + bad + "\n")
    for bad in (  # data-section ranges, checked before any graph is built
        "kind = path\ndata.n = 0",
        "kind = complete\ndata.n = -3",
        "kind = planted\ndata.p_in = 2",
        "kind = planted\ndata.p_out = -0.1",
        "kind = planted\ndata.p_in = 0.1\ndata.p_out = 0.2",
        "kind = planted\ndata.blocks = 0",
        "kind = planted\ndata.block_size = 0",
        "kind = planted\ndata.classes = 0",
        "kind = planted\ndata.features = 0",
        "kind = complete\ndata.n = 4097",  # dense generators: at most 4096 nodes
        "kind = planted\ndata.blocks = 17\ndata.block_size = 241",
        "kind = planted\ndata.blocks = 1\ndata.block_size = 5000",
    ):
        with pytest.raises(ConfigError):
            _load(tmp_path, "data." + bad + "\n")


def test_subspace_dim_cannot_exceed_window(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, MINIMAL + "server.subspace_dim = 40\nserver.window = 8\n")


def test_epsilon_adaptive_and_proxy_dim_auto(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "server.epsilon = adaptive\nserver.proxy_dim = auto\n")
    assert cfg.server.epsilon == "adaptive"
    assert cfg.server.proxy_dim is None
    cfg2 = _load(tmp_path, MINIMAL + "server.proxy_dim = 0\n")
    assert cfg2.server.proxy_dim == 0


def test_csv_source_requires_paths(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data.kind = csv\n")
    assert "required" in str(err.value)


def test_csv_paths_resolved_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "edges.csv").write_text("src,dst\n0,1\n")
    (sub / "features.csv").write_text("node_id,f0\n0,1.0\n1,2.0\n")
    (sub / "labels.csv").write_text("node_id,label\n0,0\n1,1\n")
    (sub / "splits.csv").write_text("node_id,split\n0,train\n1,test\n")
    cfg = _load(
        sub,
        """
data.kind = csv
data.edges = edges.csv
data.features = features.csv
data.labels = labels.csv
data.splits = splits.csv
""",
    )
    src = cfg.sources[0]
    assert src.edges == str(sub / "edges.csv")
    assert src.features_path == str(sub / "features.csv")


def test_partition_spec_seed_mixing(tmp_path):
    cfg = _load(tmp_path, MINIMAL + "data.clients = 3\npartition.seed = 7\n")
    spec = cfg.partition_spec(0, run_seed=2)
    assert spec.n_clients == 3
    assert spec.dirichlet_alpha == cfg.alpha
    assert spec.seed == 7 + 1000 * 2 + 500 + 0
    # different run seeds give different partition seeds
    assert cfg.partition_spec(0, run_seed=3).seed != spec.seed


def test_parse_config_keeps_raw_text():
    text = "data.kind = complete\ndata.n = 4\n"
    cfg = parse_config(text, path="inline.conf")
    assert cfg.raw_text == text


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "absent.conf"))
    assert "absent.conf" in str(err.value)


def test_range_error_names_file_and_section(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, MINIMAL + "server.alpha = 1.0\n")
    assert str(err.value).endswith("run.conf: server: alpha must be in [0, 1)")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data1.kind = planted\ndata1.p_in = 2\n")
    assert str(err.value).endswith("run.conf: data1: need 0 <= p_out <= p_in <= 1")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "data1.kind = complete\ndata1.n = 4097\n")
    assert str(err.value).endswith(
        "run.conf: data1: need at most 4096 nodes for a dense graph generator")


def test_ten_or_more_numbered_sources_keep_their_order(tmp_path):
    text = "".join(f"data{i}.kind = complete\ndata{i}.n = {i + 2}\n" for i in range(1, 12))
    cfg = _load(tmp_path, text)
    assert [s.n for s in cfg.sources] == [i + 2 for i in range(1, 12)]


def _field(cfg, section, key):
    owner = {"data": cfg.sources[0], "model": cfg.model, "client": cfg.client,
             "server": cfg.server}.get(section, cfg)
    return getattr(owner, KEYS[section, key][0])


def test_float_keys_reject_non_finite_values(tmp_path):
    float_keys = []
    for section, key in KEYS:
        if (section, key) == ("data", "kind"):
            continue
        try:
            cfg = parse_config(f"data.kind = complete\n{section}.{key} = 0.25\n")
        except ConfigError:
            continue
        if isinstance(_field(cfg, section, key), float):
            float_keys.append(f"{section}.{key}")
    assert sorted(float_keys) == [
        "client.lr", "client.mu", "data.class_sep", "data.p_in", "data.p_out",
        "partition.alpha", "server.alpha", "server.beta", "server.epsilon",
    ]
    for name in float_keys:
        for bad in ("nan", "inf", "-inf", "NaN", "1e999"):
            with pytest.raises(ConfigError) as err:
                _load(tmp_path, f"data.kind = complete\n{name} = {bad}\n")
            assert "run.conf:2: expected a finite number" in str(err.value)


_VALUES = st.one_of(
    st.text(max_size=10),
    st.sampled_from(["nan", "-inf", "1e999", "0", "-1", "0.5", "1", "40", "csv",
                     "planted", "auto", "adaptive", "true", "1, 1", "fedprox"]),
    st.integers(min_value=-5, max_value=10**6).map(str),
    st.floats().map(repr),
)


@settings(max_examples=400, deadline=None)
@given(entry=st.sampled_from(sorted(KEYS)), value=_VALUES)
def test_any_value_parses_to_finite_config_or_raises_config_error(entry, value):
    section, key = entry
    base = "" if entry == ("data", "kind") else "data.kind = complete\n"
    try:
        cfg = parse_config(f"{base}{section}.{key} = {value}\n", path="prop.conf")
    except ConfigError:
        return
    floats = [v for obj in (cfg, cfg.model, cfg.client, cfg.server, *cfg.sources)
              for v in vars(obj).values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in floats)


def test_readme_config_block_parses_and_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config(block, path="README.md")
    missing = [f"{s}.{k}" for s, k in KEYS if not re.search(rf"\b{s}\.{k}\b", block)]
    assert missing == []


_PAPER_WIDTH = """
data.kind = planted
data.blocks = 8
data.block_size = 500
data.classes = 10
data.features = {features}
model.layers = 2
model.hidden = 64
"""


def test_paper_width_proxies_parse_and_a_larger_sign_matrix_is_refused(tmp_path):
    # 767 features need a 389 MiB sign matrix, which stays allowed; 5000
    # would need 2.6 GB and fail before any graph is built. Eight blocks
    # label 8 of the 10 classes, so the head is 64 x 8 + 8
    cfg = _load(tmp_path, _PAPER_WIDTH.format(features=767))
    assert cfg.sources[0].feature_dim == 767
    with pytest.raises(ConfigError, match=r"run.conf: server: sign projection of "
                                          r"320584-long proxies to 1024 needs a 320584 x 1024 "
                                          r"x 8 = 2,626,224,128-byte matrix, above the limit "
                                          r"of 536,870,912 bytes"):
        _load(tmp_path, _PAPER_WIDTH.format(features=5000))


def test_sign_matrix_limit_at_and_one_entry_over(tmp_path, monkeypatch):
    # complete graphs of 6 nodes: identity features, one class; the
    # default 2-layer, 16-hidden model shares 6*16+16 + 16*1+1 values
    import fedgeo.server
    text = MINIMAL + "server.proxy_dim = 3\n"
    entries = (6 * 16 + 16 + 16 + 1) * 3
    monkeypatch.setattr(fedgeo.server, "_MAX_SIGN_BYTES", entries * 8)
    _load(tmp_path, text)
    monkeypatch.setattr(fedgeo.server, "_MAX_SIGN_BYTES", entries * 8 - 1)
    with pytest.raises(ConfigError, match="server: sign projection of 129-long proxies"):
        _load(tmp_path, text)
    # a csv source's layout is known only once it is loaded
    for name, body in (("e.csv", "0,1\n"), ("f.csv", "1.0\n2.0\n"), ("l.csv", "0\n1\n"),
                       ("s.csv", "train\ntest\n")):
        (tmp_path / name).write_text(body)
    _load(tmp_path, "data.kind = csv\ndata.edges = e.csv\ndata.features = f.csv\n"
                    "data.labels = l.csv\ndata.splits = s.csv\nserver.proxy_dim = 3\n")


def test_ggrs_window_limit_counts_the_fill_a_run_can_reach(tmp_path):
    # a run's window fills by at most its configured clients a round, so
    # it can reach min(window, rounds x clients) proxies; 512 is the limit
    ggrs = MINIMAL + "server.regulation = ggrs\n"
    cfg = _load(tmp_path, ggrs + "server.window = 512\nrun.rounds = 600\n")
    assert cfg.server.window == 512
    over = "server.window = 513\nrun.rounds = 600\n"
    with pytest.raises(ConfigError, match=r"run.conf: server: server.window = 513 lets a run's "
                                          r"window fill to 513 proxies, above the limit of 512"):
        _load(tmp_path, ggrs + over)
    # 2 clients for 256 rounds fill 512, one round more 514
    _load(tmp_path, ggrs + "data.clients = 2\nserver.window = 5000\nrun.rounds = 256\n")
    with pytest.raises(ConfigError, match="fill to 514 proxies, above the limit of 512"):
        _load(tmp_path, ggrs + "data.clients = 2\nserver.window = 5000\nrun.rounds = 257\n")
    # only a subspace gate reads the window
    _load(tmp_path, MINIMAL + over)
    _load(tmp_path, ggrs + over + "server.subspace_dim = 0\n")


def test_shipped_configs_and_every_workload_parse():
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "configs").glob("*.conf")):
        load_config(path)
    import sys
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import WORKLOADS, config_text
    finally:
        sys.path.remove(str(root / "perfbench"))
    for name in WORKLOADS:
        parse_config(config_text(name))
