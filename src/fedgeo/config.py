"""Run configuration: a flat, sectioned text format.

Grammar: one ``section.key = value`` assignment per line; ``#`` starts
a comment; blank lines are ignored. ``KEYS`` lists every key with the
``RunConfig``, ``DataSource``, ``ModelConfig``, ``TrainingConfig`` or
``AggregatorConfig`` field it sets, whose default applies when the key
is absent (only data.kind has none). A graph source is one ``data``
section or numbered ``data1``..``dataN`` sections; the ``model``,
``client`` and ``server`` sections build the ``ModelConfig``,
``TrainingConfig`` and ``AggregatorConfig`` that ``RunConfig.model``,
``RunConfig.client`` and ``RunConfig.server`` hold. Unknown sections
and keys, duplicates, and values of the wrong type or outside a key's
options are errors that name the file and line. Ranges are checked
afterwards by the code that owns each setting, and those errors name
the file and section. CSV paths are relative to the config file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .client import TRAINERS, TrainingConfig
from .errors import ConfigError, InputError
from .graphs import PartitionSpec, check_generator
from .model import ACTIVATIONS, ModelConfig, shared_length
from .server import (
    FALLBACKS,
    MODES,
    REFERENCES,
    WEIGHTINGS,
    AggregatorConfig,
    check_projection,
    check_window,
)

__all__ = ["DataSource", "RunConfig", "KEYS", "parse_config", "load_config"]

_LINE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\.([A-Za-z_]+)\s*=\s*(.*)$")
_NUMBERED = re.compile(r"data[1-9][0-9]*")


@dataclass(frozen=True)
class DataSource:
    """One graph source feeding one or more clients."""

    kind: str
    clients: int = 1
    # path / complete: identity features, every node class 0 and in train,
    # no test rows; alone they train nothing and add no test rows
    n: int = 8
    # planted partition
    blocks: int = 4
    block_size: int = 30
    p_in: float = 0.3
    p_out: float = 0.05
    classes: int = 4
    feature_dim: int = 8
    class_sep: float = 1.0
    # csv
    edges: str | None = None
    features_path: str | None = None
    labels: str | None = None
    splits: str | None = None


@dataclass(frozen=True)
class RunConfig:
    name: str = "run"
    rounds: int = 100
    seeds: tuple[int, ...] = (1, 2, 3)
    out: str = "out"
    regime: str = "intra_domain"
    sources: tuple[DataSource, ...] = ()
    alpha: float = 0.3               # partition concentration
    partition_seed: int = 0
    model: ModelConfig = ModelConfig()
    client: TrainingConfig = TrainingConfig()
    server: AggregatorConfig = AggregatorConfig()
    raw_text: str = field(default="", repr=False)

    @property
    def n_clients(self) -> int:
        return sum(s.clients for s in self.sources)

    def partition_spec(self, source_index: int, run_seed: int) -> PartitionSpec:
        """Dirichlet spec for one source under one run seed (seed mixing
        is part of the determinism contract: partition_seed + 1000 *
        run_seed + 500 + source_index)."""
        return PartitionSpec(
            n_clients=self.sources[source_index].clients,
            dirichlet_alpha=self.alpha,
            seed=self.partition_seed + 1000 * run_seed + 500 + source_index,
        )


# Converters read one value's text and raise ValueError with the reason.

def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _choice(*options: str):
    def convert(raw: str) -> str:
        if raw in options:
            return raw
        raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
    return convert


def _trainer(raw: str) -> str:
    if raw == "fedsgd":  # the alias ran fedavg's one step whatever the epochs
        raise ValueError("trainer fedsgd is fedavg at one epoch: use client.trainer = fedavg "
                         "with client.epochs = 1")
    return _choice(*TRAINERS)(raw)


def _word_or(word: str, value, convert):
    """``word`` reads as ``value``; any other text goes through ``convert``."""
    return lambda raw: value if raw == word else convert(raw)


def _seeds(raw: str) -> tuple[int, ...]:
    return tuple(_int(p.strip()) for p in raw.split(",") if p.strip())


def _path(raw: str) -> str:
    """A file name; ``parse_config`` resolves it against the config's directory."""
    return raw


# (section, key) -> (target field, converter). "data" stands for every
# data section; its fields are DataSource's, the model, client and server
# sections' are ModelConfig's, TrainingConfig's and AggregatorConfig's,
# and all others RunConfig's.
KEYS = {
    ("run", "name"): ("name", str),
    ("run", "rounds"): ("rounds", _int),
    ("run", "seeds"): ("seeds", _seeds),
    ("run", "out"): ("out", str),
    ("run", "regime"): ("regime", _choice("intra_domain", "cross_domain")),
    ("data", "kind"): ("kind", _choice("path", "complete", "planted", "csv")),
    ("data", "clients"): ("clients", _int),
    ("data", "n"): ("n", _int),
    ("data", "blocks"): ("blocks", _int),
    ("data", "block_size"): ("block_size", _int),
    ("data", "p_in"): ("p_in", _float),
    ("data", "p_out"): ("p_out", _float),
    ("data", "classes"): ("classes", _int),
    ("data", "features"): ("feature_dim", _int),  # a path for csv sources
    ("data", "class_sep"): ("class_sep", _float),
    ("data", "edges"): ("edges", _path),
    ("data", "labels"): ("labels", _path),
    ("data", "splits"): ("splits", _path),
    ("partition", "alpha"): ("alpha", _float),
    ("partition", "seed"): ("partition_seed", _int),
    ("model", "layers"): ("n_layers", _int),
    ("model", "hidden"): ("hidden_dim", _int),
    ("model", "activation"): ("activation", _choice(*ACTIVATIONS)),
    ("model", "bias"): ("bias", _bool),
    ("client", "trainer"): ("trainer", _trainer),
    ("client", "lr"): ("lr", _float),
    ("client", "epochs"): ("epochs", _int),
    ("client", "mu"): ("mu", _float),
    ("server", "regulation"): ("mode", _choice(*MODES)),
    ("server", "alpha"): ("alpha", _float),
    ("server", "beta"): ("beta", _float),
    ("server", "epsilon"): ("epsilon", _word_or("adaptive", "adaptive", _float)),
    ("server", "subspace_dim"): ("subspace_dim", _int),
    ("server", "window"): ("window", _int),
    ("server", "proxy_dim"): ("proxy_dim", _word_or("auto", None, _int)),
    ("server", "weights"): ("weights", _choice(*WEIGHTINGS)),
    ("server", "fallback"): ("fallback", _choice(*FALLBACKS)),
    ("server", "reference"): ("reference", _choice(*REFERENCES)),
}
_SECTIONS = {section for section, _ in KEYS}
_CSV_FILES = ("edges", "features", "labels", "splits")


def _fail(path: str, line: int, reason: str):
    raise ConfigError(f"{path}:{line}: {reason}")


def _parse_lines(text: str, path: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if m is None:
            _fail(path, ln, f"expected 'section.key = value', got {line!r}")
        section, key, value = m.group(1), m.group(2), m.group(3).strip()
        if (section, key) in entries:
            _fail(path, ln, f"duplicate key {section}.{key}")
        entries[(section, key)] = (value, ln)
    return entries


def _source_sections(entries, path) -> list[str]:
    names = sorted(
        {s for s, _ in entries if s == "data" or _NUMBERED.fullmatch(s)},
        key=lambda s: int(s[4:] or 0),
    )
    if not names:
        _fail(path, 1, "at least one data section is required")
    if "data" in names and len(names) > 1:
        _fail(path, 1, "use either a single [data] section or numbered data1..dataN")
    if names != ["data"] and names != [f"data{i}" for i in range(1, len(names) + 1)]:
        _fail(path, 1, f"data sections must be numbered consecutively, got {names}")
    return names


def _fields(entries, source_names, path: str, base_dir: Path) -> dict[str, dict]:
    """Section name -> {field: value} for every entry, read through KEYS."""
    fields: dict[str, dict] = {
        name: {} for name in ["run", "model", "client", "server", *source_names]
    }
    for (section, key), (raw, ln) in entries.items():
        table_section = "data" if section in source_names else section
        if table_section not in _SECTIONS:
            _fail(path, ln, f"unknown section {section!r}")
        if (table_section, key) not in KEYS:
            _fail(path, ln, f"unknown key {section}.{key}")
        target, convert = KEYS[table_section, key]
        if target == "feature_dim" and entries.get((section, "kind"), ("",))[0] == "csv":
            target, convert = "features_path", _path
        try:
            value = convert(raw)
        except ValueError as exc:
            _fail(path, ln, str(exc))
        if convert is _path:
            value = str(base_dir / value)
        # data, model, client and server fill their own objects, the rest RunConfig
        fields[section if section in fields else "run"][target] = value
    return fields


def _check_source(src: DataSource) -> None:
    """The generator range rules for the keys this source's kind reads."""
    if src.kind in ("path", "complete"):
        check_generator(n_nodes=src.n, dense=src.kind == "complete")
    elif src.kind == "planted":
        check_generator(n_blocks=src.blocks, block_size=src.block_size, p_in=src.p_in,
                        p_out=src.p_out, n_classes=src.classes, feature_dim=src.feature_dim,
                        dense=True)


def _in_section(path: str, section: str, check):
    """``check()``, with its InputError reported as naming the file and section."""
    try:
        return check()
    except InputError as exc:
        raise ConfigError(f"{path}: {section}: {exc}") from None


def _check_ranges(cfg: RunConfig, source_names: list[str], path: str) -> None:
    """Run each data source's range rules, and each partition's under
    every run seed, in the code that owns them."""
    checks = [
        (name, lambda src=src: _check_source(src))
        for name, src in zip(source_names, cfg.sources)
    ] + [
        (f"partition of {name}", lambda j=j, s=s: cfg.partition_spec(j, s))
        for j, name in enumerate(source_names) for s in cfg.seeds
    ]
    for section, check in checks:
        _in_section(path, section, check)


def _check_proxies(cfg: RunConfig, path: str) -> None:
    """The window limit of the run's proxies (``check_window``: a run's
    window fills by at most its configured clients each round) and their
    sign-matrix limit (``check_projection``), where every source is
    generated, so the model's layout is known before any graph is built."""
    _in_section(path, "server", lambda: check_window(cfg.server, cfg.rounds * cfg.n_clients))
    if any(src.kind == "csv" for src in cfg.sources):
        return
    # path and complete graphs have identity features and one class; a
    # planted graph labels block b with class b mod classes
    widths = {src.feature_dim if src.kind == "planted" else src.n for src in cfg.sources}
    if len(widths) > 1:
        return  # build_clients refuses sources that disagree on feature width
    classes = max(min(src.blocks, src.classes) if src.kind == "planted" else 1
                  for src in cfg.sources)
    length = shared_length(cfg.model, widths.pop(), classes, cfg.regime == "cross_domain")
    _in_section(path, "server", lambda: check_projection(cfg.server, length))


def parse_config(text: str, path: str = "<config>", base_dir: Path | None = None) -> RunConfig:
    base_dir = base_dir or Path(".")
    entries = _parse_lines(text, path)
    source_names = _source_sections(entries, path)
    fields = _fields(entries, source_names, path, base_dir)

    for name in source_names:
        if "kind" not in fields[name]:
            _fail(path, 1, f"{name}.kind is required")
        if fields[name]["kind"] == "csv":
            for key in _CSV_FILES:
                if (name, key) not in entries:
                    _fail(path, 1, f"{name}.{key} is required for csv sources")

    cfg = RunConfig(
        sources=tuple(DataSource(**fields[name]) for name in source_names),
        model=_in_section(path, "model", lambda: ModelConfig(**fields["model"])),
        client=_in_section(path, "client", lambda: TrainingConfig(**fields["client"])),
        server=_in_section(path, "server", lambda: AggregatorConfig(**fields["server"])),
        raw_text=text,
        **fields["run"],
    )
    cross = cfg.regime == "cross_domain"
    for key, broken, reason in (  # rules of the run section, which only it owns
        ("rounds", cfg.rounds < 1, "rounds must be >= 1"),
        ("seeds", not cfg.seeds, "at least one seed is required"),
        ("seeds", len(set(cfg.seeds)) != len(cfg.seeds), "seeds must be distinct"),
        ("seeds", any(s < 0 for s in cfg.seeds), "seeds must be >= 0"),
        ("regime", cross and len(cfg.sources) < 2, "cross_domain requires at least 2 data sections"),
        ("regime", cross and cfg.model.n_layers < 2, "cross_domain requires layers = 2 (the head stays local)"),
    ):
        if broken:
            _fail(path, entries["run", key][1], reason)
    _check_ranges(cfg, source_names, path)
    _check_proxies(cfg, path)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text, path=str(path), base_dir=p.parent)
