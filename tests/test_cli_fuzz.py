"""Fuzz test of the scenario file's population keys: a valid file with
one or two mutations from a fixed menu is read, or rejected with one
line naming the file and a key, and a run that goes ahead writes finite
rates."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slda.cli import main
from slda.errors import DataError
from slda.simulate import _POPULATION_KEYS, read_scenario

POPULATION_KEYS = ("p", *_POPULATION_KEYS)
# valid bases with p <= 12, so that no example builds a large Sigma;
# from_file is left out, since a sigma_file's faults are the matrix
# reader's (tests/test_io.py)
SIGMAS = [[], [("sigma", "ar1"), ("rho", "0.4")],
          [("sigma", "banded"), ("width", "2"), ("value", "0.2")]]
DELTAS = [[("delta_count", "2"), ("delta_magnitude", "1.5")],
          [("delta_values", "1,0,-0.5,0,0,0,0,2")]]
LAWS = [[], [("distribution", "student_t"), ("df", "3")]]
REST = [("n1", "6"), ("n2", "6"), ("methods", "slda,lda,oracle"), ("m1", "1"), ("m2", "0.8"),
        ("reps", "1"), ("seed", "5")]
VALUES = ["-1", "0", "nan", "inf", "abc", "", "1.5", "True", "1e308"]
KINDS = ["wishart", "t", "Identity", "gaussian"]  # unknown sigma and distribution kinds


@st.composite
def scenario_lines(draw):
    """The (key, value) lines of a valid p = 8 scenario, mutated once or
    twice."""
    lines = ([("p", "8")] + draw(st.sampled_from(DELTAS)) + draw(st.sampled_from(SIGMAS))
             + draw(st.sampled_from(LAWS)) + REST)
    for _ in range(draw(st.integers(1, 2))):
        present = [i for i, (key, _) in enumerate(lines) if key in POPULATION_KEYS]
        mutation = draw(st.sampled_from(["drop", "repeat", "misspell", "kind", "value"]))
        if mutation in ("drop", "repeat", "misspell") and present:
            i = draw(st.sampled_from(present))
            key, value = lines[i]
            if mutation == "drop":
                del lines[i]
            elif mutation == "repeat":
                lines.append((key, value))
            else:
                lines[i] = (draw(st.sampled_from([key + "s", key.upper(), key + "_"])), value)
            continue
        if mutation == "kind":
            key = draw(st.sampled_from(["sigma", "distribution"]))
            value = draw(st.sampled_from(KINDS))
        else:  # a key of the file as often as any population key
            keys = [lines[i][0] for i in present] if present and draw(st.booleans()) else None
            key = draw(st.sampled_from(keys or POPULATION_KEYS))
            value = draw(st.sampled_from(VALUES))
        at = [i for i, (k, _) in enumerate(lines) if k == key]
        if at:
            lines[at[0]] = (key, value)
        else:
            lines.append((key, value))
    return lines


def names_a_key(message: str, keys) -> bool:
    # "key: ...", "key has ...", or the key quoted anywhere
    return any(message.startswith((key + ":", key + " ")) or f"'{key}'" in message
               for key in keys)


BANDED = [("p", "8")] + DELTAS[0] + SIGMAS[2] + REST


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=scenario_lines())
# failed at the parent: Sigma not positive definite named no file, and
# distribution = t was "unused scenario key(s) 'df'"
@example(lines=BANDED[:5] + [("value", "1.5")] + REST)
@example(lines=BANDED + [("distribution", "t"), ("df", "3")])
@example(lines=BANDED[:5] + [("value", "0")] + REST)  # Sigma = I: exit 0
def test_population_keys_exit_0_or_2_naming_file_and_key(tmp_path_factory, lines):
    tmp = tmp_path_factory.getbasetemp() / "population_fuzz"  # one folder for every example
    tmp.mkdir(exist_ok=True)
    path, replicates = tmp / "sc.txt", tmp / "out_replicates.csv"
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines), encoding="utf-8")
    replicates.unlink(missing_ok=True)
    try:
        read_scenario(path)
        read_error = None
    except DataError as exc:
        read_error = str(exc)

    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["simulate", "--scenario", str(path), "--reps", "1",
                     "--out", str(tmp / "out_")])
    err = err.getvalue()
    assert code in (0, 2)
    if read_error is not None:
        assert code == 2 and err == f"error [simulate]: {read_error}\n"
    if code == 2:
        assert err.count("\n") == 1 and err.startswith(f"error [simulate]: {path}: ")
        message = err[len(f"error [simulate]: {path}: "):]
        assert names_a_key(message, {key for key, _ in lines} | set(POPULATION_KEYS))
        assert not replicates.exists()
        return
    rows = [row.split(",") for row in replicates.read_text(encoding="utf-8").splitlines()]
    rates = [row[rows[0].index("rate")] for row in rows[1:]]
    assert rates and all(math.isfinite(float(rate)) for rate in rates if rate)
