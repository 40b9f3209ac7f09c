"""Fuzzing the CLI's input parsers: matrix files and channel descriptors.

Arbitrary input goes through cli.main. An input the parser accepts runs to
the end (exit 0, or 3 past the column cap); one it rejects exits 2. Every
nonzero exit prints exactly one `error:` line on stderr and no traceback.
"""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leakexp.cli as cli
from leakexp.channels import parse_channel
from leakexp.errors import InputParseError
from leakexp.gf2 import parse_matrix

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects by exiting
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(out: str, err: str) -> None:
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err


dimension = st.one_of(st.integers(-2, 30), st.integers(min_value=0))


@st.composite
def near_matrices(draw) -> str:
    """A header and rows mostly over {0, 1}, with the shape often wrong. The
    other row characters include what int() would read: signs, '_', 'b',
    spaces and digits of other scripts."""
    head = f"{draw(dimension)} {draw(dimension)}"
    head = draw(st.sampled_from([head, head + " 1", " " + head, head.replace(" ", "\t")]))
    rows = draw(st.lists(st.text(alphabet="01 x\t_+-b１٠", max_size=14), max_size=6))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join([head, *rows]) + draw(st.sampled_from(["", sep, sep + sep]))


@FUZZ
@given(st.one_of(st.text(), near_matrices(), st.binary()))
@example("0 100000000000\n")
@example("2 3\n101\n011\n")
@example("1 " + "9" * 5000 + "\n")
@example(b"\xff\xfe1 2\n11\n")
def test_matrix_file_fuzz(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "m.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    try:
        parse_matrix(path.read_text())  # read as the CLI reads it
        accepted = True
    except (InputParseError, UnicodeDecodeError):
        accepted = False
    code, out, err = run_cli(["leakage", f"--matrix={path}", "--channel=bec:0.5"])
    assert code in ((0, 3) if accepted else (2,)), (code, err)
    if code:
        assert_one_error_line(out, err)


number = st.one_of(
    st.floats().map(repr),
    st.decimals(allow_nan=True).map(str),
    st.text(alphabet="0123456789.eE+-_ infa", max_size=8),
)


@FUZZ
@given(
    st.one_of(
        st.text(),
        st.tuples(st.sampled_from(["bec", "bsc", "BEC", "bec ", "", "awgn"]), number)
        .map(":".join),
    )
)
@example("bec:0.5")
@example("bsc:1e-400")
@example("bec:-0")
@example("bsc:0.5:1")
@example("-bec:0.1")
def test_channel_descriptor_fuzz(tmp_path_factory, descriptor):
    path = tmp_path_factory.getbasetemp() / "channel_fuzz.txt"
    path.write_text("1 2\n11\n")
    try:
        parse_channel(descriptor)
        accepted = True
    except InputParseError:
        accepted = False
    code, out, err = run_cli(["leakage", f"--matrix={path}", f"--channel={descriptor}"])
    assert code == (0 if accepted else 2), (code, err)
    if code:
        assert_one_error_line(out, err)
