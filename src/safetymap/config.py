"""Pipeline configuration: a flat key = value text file with # comments,
overridable by CLI flags, plus the master-seed splitting rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class PipelineConfig:
    interval_m: float = 20.0
    window: int = 50
    stride: int = 1
    feature_dim: int = 16  # desk-scale default; use 250 for full-width features
    hidden: int = 100
    mid_dim: int = 50
    dropout: float = 0.2
    cnn_lr: float = 1e-3
    lstm_lr: float = 1e-3  # drop as low as 1e-6 for slow, stable fine-tuning
    cnn_epochs: int = 30
    lstm_epochs: int = 30
    batch_size: int = 32
    threshold: float = 0.5
    seed: int = 0
    n_points: int = 2000
    corrupt_rate: float = 0.05
    noise_sigma: float = 0.7

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"config: {f.name} must be finite, got {value}")
        checks = [
            (self.interval_m > 0, "interval_m must be > 0"),
            (self.window >= 1, "window must be >= 1"),
            (self.stride >= 1, "stride must be >= 1"),
            (self.feature_dim >= 3, "feature_dim must be >= 3"),
            (self.hidden >= 1, "hidden must be >= 1"),
            (self.mid_dim >= 1, "mid_dim must be >= 1"),
            (0.0 <= self.dropout < 1.0, "dropout must be in [0, 1)"),
            (self.cnn_lr > 0 and self.lstm_lr > 0, "learning rates must be > 0"),
            (self.cnn_epochs >= 0 and self.lstm_epochs >= 0, "epochs must be >= 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0.0 <= self.threshold <= 1.0, "threshold must be in [0, 1]"),
            (self.n_points >= 1, "n_points must be >= 1"),
            (0.0 <= self.corrupt_rate < 1.0, "corrupt_rate must be in [0, 1)"),
            (self.noise_sigma > 0, "noise_sigma must be > 0"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(f"config: {message}")


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines. An unknown or repeated key, a line without '=', a bad
    value or bytes that are not UTF-8 are ValueErrors that start `config: PATH:`."""
    values: dict = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                where = f"config: {path}:{line_no}"
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{where}: expected 'key = value', got {raw.rstrip()!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in _FIELD_TYPES:
                    raise ValueError(f"{where}: unknown config key {key!r}")
                if key in first_line:
                    raise ValueError(f"{where}: {key} repeated, first set on line {first_line[key]}")
                first_line[key] = line_no
                try:
                    values[key] = int(value) if _FIELD_TYPES[key] == "int" else float(value)
                except ValueError as exc:
                    raise ValueError(f"{where}: {key}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"config: {path}: not UTF-8: {exc}") from exc
    return values


def load_config(path: str | None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then the config file, then explicit flag overrides."""
    config = PipelineConfig()
    if path:
        config = replace(config, **parse_config_file(path))
    if overrides:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    config.validate()
    return config


# Stage identifiers for the master-seed split: each pipeline stage draws its
# integer seed from SeedSequence([master_seed, STAGE_IDS[stage]]), so stages
# are independently reproducible no matter which commands ran before.
STAGE_IDS = {
    "synth": 1,
    "cnn-init": 2,
    "cnn-train": 3,
    "lstm-init": 4,
    "lstm-train": 5,
}


def stage_seed(master_seed: int, stage: str) -> int:
    import numpy as np

    return int(np.random.SeedSequence([master_seed, STAGE_IDS[stage]]).generate_state(1)[0])
