"""Exception types and the integer check shared across the package.

The CLI maps these onto exit codes: config problems exit 1, numerical
divergence exits 2 (see ``fedgeo.cli``).
"""

import numbers


class InputError(ValueError):
    """Malformed input data: bad graph structure, mismatched dimensions."""


class CsvFormatError(InputError):
    """A data file failed to parse; message carries file and line number."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")


class ConfigError(Exception):
    """Invalid run configuration; message carries file and line when known."""


class DivergenceError(RuntimeError):
    """Local training produced a non-finite loss; ``run`` is the index of
    the diverged client's run in its federation (see ``Federation``), and
    ``seed`` the run seed it trained under, when known (the harness's
    errors name it; client ids restart in every seed)."""

    def __init__(self, round_index: int, client_id: int, run: int = 0,
                 seed: int | None = None):
        self.round_index = round_index
        self.client_id = client_id
        self.run = run
        self.seed = seed
        where = "" if seed is None else f"seed {seed}, "
        super().__init__(f"non-finite loss at {where}round {round_index}, client {client_id}")


def check_integer(name: str, value: object) -> None:
    """InputError naming the field ``name`` unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, not {value!r}")
