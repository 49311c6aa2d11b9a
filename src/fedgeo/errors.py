"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems exit 1, numerical
divergence exits 2 (see ``fedgeo.cli``).
"""


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
    """Local training produced a non-finite loss."""

    def __init__(self, round_index: int, client_id: int):
        self.round_index = round_index
        self.client_id = client_id
        super().__init__(
            f"non-finite loss at round {round_index}, client {client_id}"
        )
