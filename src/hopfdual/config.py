"""Run configuration: plain-text `key = value` files plus CLI overrides.

The file format is a flat list of assignments under [section] headers:

    [model]
    demand = reciprocal
    w = 1.0
    k = 0.01
    c = 50.0

    [simulation]
    tau = 3.2
    step = 0.01
    t_end = 5000
    history_p0 = 0.025

Unknown sections or keys are rejected so typos fail loudly. Every JSON
report embeds the resolved configuration under the same section/key names,
so a report can be turned back into a config file mechanically.

Each `RunConfig` field is the one declaration of a setting: its key (the
field's name), default and section, how its text is parsed, which values
are valid and, for some, the command-line flag that overrides it.
`SETTINGS`, section -> key -> `Setting`, is derived from the fields.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

from .demand import FAMILIES, make_demand
from .errors import ValidationError
from .model import ModelConfig

SEED_DIR_ENV = "HOPFDUAL_SEED_DIR"

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def parse_bool(raw: str) -> bool:
    """A yes/no word (true/false, yes/no, on/off, 1/0), any case."""
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOL_WORDS[word]


def _float_list(raw: str) -> list[float]:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not parts:
        raise ValueError("empty list")
    return [float(p) for p in parts]


class Setting(NamedTuple):
    """One run setting: its config-file section, the parser of its text,
    and its rule `(test, text)`: a value other than None must pass `test`,
    or the error says the setting must be `text`. A setting with `help` is
    also the flag `--key` (underscores as hyphens), whose value the usage
    text calls `metavar`."""

    section: str
    parse: Callable[[str], Any]
    rule: tuple[Callable[[Any], bool], str] | None = None
    help: str | None = None
    metavar: str | None = None

    def read(self, raw: str, where: str):
        """The parsed value of `raw`; a parse failure names `where`."""
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ValidationError(f"bad value for {where}: {exc}") from None


def _setting(default, section, parse, rule=None, help=None, metavar=None):
    """A RunConfig field with this default that declares its Setting."""
    return field(default=default,
                 metadata={"setting": Setting(section, parse, rule, help, metavar)})


_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "nonnegative")


@dataclass
class RunConfig:
    """Fully resolved run settings with package defaults filled in. Each
    field is one setting, named by its file key."""

    demand: str = _setting("reciprocal", "model", str,
                           (lambda f: f in FAMILIES, "reciprocal or powerlaw"))
    w: float = _setting(1.0, "model", float, _POSITIVE)
    alpha: float | None = _setting(None, "model", float, _POSITIVE)
    k: float = _setting(0.01, "model", float, _POSITIVE)
    c: float = _setting(50.0, "model", float, _POSITIVE)
    tau: float | None = _setting(None, "simulation", float, _NONNEGATIVE, "feedback delay")
    tau_list: list[float] | None = _setting(
        None, "simulation", _float_list,
        (lambda ts: len(ts) > 0 and all(0.0 <= t < math.inf for t in ts),
         "a nonempty list of nonnegative delays"),
        "comma-separated delays (sweep)", "T1,T2,...",
    )
    step: float | None = _setting(None, "simulation", float, _POSITIVE, "integration step size")
    t_end: float = _setting(5000.0, "simulation", float, _POSITIVE, "final time")
    history_p0: float | None = _setting(None, "simulation", float, _POSITIVE,
                                        "constant initial history value")
    out: str | None = _setting(None, "output", str, help="write the main output file",
                               metavar="FILE")
    json: bool = _setting(False, "output", parse_bool,
                          help="print the JSON report instead of text")
    waveform: str | None = _setting(None, "output", str)

    def validate(self) -> None:
        """Raise ValidationError for the first setting that breaks its rule."""
        for keys in SETTINGS.values():
            for key, setting in keys.items():
                value = getattr(self, key)
                try:
                    ok = value is None or setting.rule is None or setting.rule[0](value)
                except TypeError:  # argparse passes `--tau=--` on as [], unparsed
                    ok = False
                if not ok:
                    raise ValidationError(f"{key} must be {setting.rule[1]}, got {value!r}")

    def build_model(self) -> ModelConfig:
        """ModelConfig at the configured delay, or at 0 when none is set."""
        demand = make_demand(self.demand, w=self.w, alpha=self.alpha)
        tau = self.tau if self.tau is not None else 0.0
        return ModelConfig(k=self.k, c=self.c, tau=tau, demand=demand)

    def to_sections(self) -> dict[str, dict]:
        """Resolved settings as nested file-format sections (None omitted)."""
        return {
            section: {key: value for key in keys
                      if (value := getattr(self, key)) is not None}
            for section, keys in SETTINGS.items()
        }


# section -> key -> setting, in RunConfig's field order
SETTINGS: dict[str, dict[str, Setting]] = {}
for _f in fields(RunConfig):
    SETTINGS.setdefault(_f.metadata["setting"].section, {})[_f.name] = _f.metadata["setting"]


def resolve_config_path(path: str) -> str:
    """Resolve a --config path, falling back to the seed directory.

    A relative path that does not exist from the current directory is
    retried under $HOPFDUAL_SEED_DIR when that variable is set.
    """
    if os.path.exists(path):
        return path
    seed = os.environ.get(SEED_DIR_ENV)
    if seed and not os.path.isabs(path):
        candidate = os.path.join(seed, path)
        if os.path.exists(candidate):
            return candidate
    raise ValidationError(f"config file not found: {path}")


def parse_config_file(path: str) -> dict[str, dict]:
    """Parse sections/keys/values from a config file, strictly."""
    resolved = resolve_config_path(path)
    sections: dict[str, dict] = {}
    current: str | None = None
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            text_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text_lines, start=1):
        text = line.strip()
        if not text or text.startswith("#") or text.startswith(";"):
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1].strip()
            if current not in SETTINGS:
                raise ValidationError(
                    f"{path}:{lineno}: unknown section [{current}]"
                )
            sections.setdefault(current, {})
            continue
        if "=" not in text:
            raise ValidationError(f"{path}:{lineno}: expected `key = value`")
        if current is None:
            raise ValidationError(
                f"{path}:{lineno}: assignment before any [section] header"
            )
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in SETTINGS[current]:
            raise ValidationError(
                f"{path}:{lineno}: unknown key {key!r} in section [{current}]"
            )
        if key in sections[current]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate key {key!r} in section [{current}]"
            )
        sections[current][key] = SETTINGS[current][key].read(
            raw.strip(), f"[{current}] {key}"
        )
    return sections


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and `overrides`
    (key -> value; the CLI passes the flags it was given)."""
    values = {}
    if path is not None:
        for entries in parse_config_file(path).values():
            values.update(entries)
    cfg = RunConfig(**{**values, **(overrides or {})})
    cfg.validate()
    return cfg


def write_config_file(sections: dict[str, dict], path: str) -> None:
    """Write nested sections back to the `key = value` file format."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, list):
                text = ", ".join(repr(float(v)) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
