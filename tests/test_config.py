"""Configuration files: round trip through the file format."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfdual.config import RunConfig, load_config, write_config_file
from hopfdual.errors import ValidationError

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_PATH = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/", min_size=1, max_size=20)

_CONFIGS = st.builds(
    RunConfig,
    demand_family=st.sampled_from(["reciprocal", "powerlaw"]),
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
    json_output=st.booleans(),
    waveform=st.none() | _PATH,
    periods=st.integers(1, 1000),
)


@given(cfg=_CONFIGS)
def test_config_file_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.ini")
        write_config_file(cfg.to_sections(), path)
        assert load_config(path) == cfg


@pytest.mark.parametrize("key", ["periods"])
def test_counts_are_bounded(key):
    # Validation runs before anything is sized by the count, so a huge
    # value is refused without allocating.
    assert getattr(load_config(None, {key: 1000}), key) == 1000
    for bad in (0, 1001, 10**12):
        with pytest.raises(ValidationError, match=rf"{key} must be in \[1, 1000\], got {bad}$"):
            load_config(None, {key: bad})
