"""Configuration files: round trip through the file format."""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from hopfdual.config import SETTINGS, RunConfig, load_config, write_config_file

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_PATH = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/", min_size=1, max_size=20)

_CONFIGS = st.builds(
    RunConfig,
    demand=st.sampled_from(["reciprocal", "powerlaw"]),
    w=_POSITIVE,
    alpha=st.none() | _POSITIVE,
    k=_POSITIVE,
    c=_POSITIVE,
    tau=st.none() | _NONNEGATIVE,
    tau_list=st.none() | st.lists(_NONNEGATIVE, min_size=1, max_size=5),
    step=st.none() | _POSITIVE,
    t_end=_POSITIVE,
    history_p0=st.none() | _POSITIVE,
    out=st.none() | _PATH,
    json=st.booleans(),
    waveform=st.none() | _PATH,
)


@given(cfg=_CONFIGS)
def test_config_file_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.ini")
        write_config_file(cfg.to_sections(), path)
        assert load_config(path) == cfg


def test_settings_are_the_run_config_fields_in_order():
    # each field declares its setting, keyed by the field's name, so no key
    # is declared twice, and the sections and keys follow the fields' order
    keys = [key for section in SETTINGS.values() for key in section]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
    assert [(section, list(keys)) for section, keys in SETTINGS.items()] == [
        ("model", ["demand", "w", "alpha", "k", "c"]),
        ("simulation", ["tau", "tau_list", "step", "t_end", "history_p0"]),
        ("output", ["out", "json", "waveform"]),
    ]
