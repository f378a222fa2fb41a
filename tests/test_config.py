"""Configuration files: round trip through the file format."""

import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from hopfdual.config import RunConfig, load_config, write_config_file

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
)


@given(cfg=_CONFIGS)
def test_config_file_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.ini")
        write_config_file(cfg.to_sections(), path)
        assert load_config(path) == cfg
