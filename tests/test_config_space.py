"""Every command on drawn configs: an exit status, and stderr that fits it."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fadofsim.cli import main
from fadofsim.config import _KEYS

# a coarse grid, a 2 x 2 scan and a short acquisition, under the drawn keys
BASE = {
    "spectrum": {"step_MHz": "20"},
    "optimize": {"step_MHz": "20", "b_points": "2", "temperature_points": "2"},
    "montecarlo": {"duration_s": "0.05"},
}
COMMANDS = (["spectrum"], ["g2"], ["simulate"], ["optimize"], ["noise"])
# zero, negative, tiny and huge values of each kind
NUMBERS = {
    float: ["0", "-1", "1e-300", "-1e-300", "1e300", "-1e300"],
    int: ["0", "-1", "1", "99999999999999999999", "1.5"],
    complex: ["0", "-1", "1e-300", "1e300", "1e300j", "-1e300"],
    bool: ["on", "0", "maybe"],
    str: ["0", "-1", "1e-300"],
}
GARBAGE = ["abc", "", "auto", "off"]


# one past a bound, by its operator
PAST = {">": lambda limit: limit - 1, ">=": lambda limit: limit - 1,
        "<=": lambda limit: limit + 1, "within": lambda limit: -(limit + 1)}


def _values(row):
    """The drawn values of one ``_KEYS`` row, its bound and one past it included."""
    _section, _key, _field, default, _scale, *bound = row
    edges = [repr(bound[1]), repr(PAST[bound[0]](bound[1]))] if bound else []
    return st.sampled_from(NUMBERS[type(default)] + edges + GARBAGE)


SETTINGS = st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3, unique=True).flatmap(
    lambda rows: st.tuples(*(st.tuples(st.just(row), _values(row)) for row in rows))
)


def _config_text(drawn) -> str:
    sections = {section: dict(keys) for section, keys in BASE.items()}
    for (section, key, *_), value in drawn:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )


@settings(derandomize=True, max_examples=400, deadline=None)
@given(SETTINGS)
def test_every_command_exits_0_1_or_2_with_stderr_that_fits(drawn):
    text = _config_text(drawn)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.cfg"
        cfg.write_text(text)
        for command in COMMANDS:
            err = io.StringIO()
            # a warning would print beside the status's own lines
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                status = main(["--config", str(cfg), "--out", str(Path(tmp) / "out"), *command])
            lines = err.getvalue().splitlines()
            where = f"{command[0]} on\n{text}stderr: {lines}"
            assert status in (0, 1, 2), where
            if status == 0:
                assert not lines, where
            elif status == 1:
                assert lines and all(line.startswith("validity flag: ") for line in lines), where
            else:
                assert len(lines) == 1, where
                assert lines[0].startswith(("config error: ", "error: ")), where
