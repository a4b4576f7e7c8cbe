from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from galois_sums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_report(capsys):
    code, out, _ = run(capsys, "ring", "-p", "3", "-n", "2", "-s", "1")
    assert code == 0
    assert "(8,)" in out and "|R*| = 6" in out


def test_ring_json(capsys):
    code, out, _ = run(capsys, "ring", "-p", "2", "-n", "2", "-s", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unit_count"] == 12
    assert payload["ring"]["modulus"] == [1, 1, 1]


def test_bad_prime_exits_2(capsys):
    code, _, err = run(capsys, "ring", "-p", "4", "-n", "2", "-s", "1")
    assert code == 2
    assert "prime" in err


def test_chars_listing(capsys):
    code, out, _ = run(capsys, "chars", "-p", "3", "-n", "2", "-s", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["characters"]) == 6
    assert len(payload["section"]) == 3


def test_gauss_command(capsys):
    code, out, _ = run(
        capsys, "gauss", "-p", "3", "-n", "2", "-s", "1", "--char", "1,1", "--b", "1"
    )
    assert code == 0 and "agree: True" in out


def test_jacobi_command_trivial(capsys):
    code, out, _ = run(
        capsys,
        "jacobi", "-p", "3", "-n", "2", "-s", "1",
        "--chars", "0,0;0,0", "--a", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["expected"]["integer"] == 3
    assert payload["lemma"] == "all-trivial-count"


def test_jacobi_primitive_triple(capsys):
    code, out, _ = run(
        capsys,
        "jacobi", "-p", "3", "-n", "2", "-s", "1",
        "--chars", "1,1;1,2;1,1", "--a", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True


def test_jacobi_disagreement_injection_exits_4(capsys):
    code, _, _ = run(
        capsys,
        "jacobi", "-p", "3", "-n", "2", "-s", "1",
        "--chars", "0,0;0,0", "--a", "1", "--inject-disagreement",
    )
    assert code == 4


def test_jacobi_cap_exits_3(capsys):
    code, _, err = run(
        capsys,
        "jacobi", "-p", "3", "-n", "2", "-s", "1",
        "--chars", "0,0;0,0;0,0", "--a", "1", "--cap-terms", "4",
    )
    assert code == 3
    assert "cap" in err


def test_tilde_jacobi_command(capsys):
    code, out, _ = run(
        capsys,
        "tilde-jacobi", "-p", "3", "-n", "2", "-s", "1",
        "--chars", "0,0;0,0;0,0", "--a", "1", "-k", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"]["integer"] == 54


def test_codebook_command(capsys, tmp_path):
    out_file = tmp_path / "cb.csv"
    code, out, _ = run(
        capsys,
        "codebook", "-p", "3", "-n", "2", "-s", "1", "-m", "3", "-k", "1",
        "--export", str(out_file), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 162 and payload["K"] == 54
    assert abs(payload["imax_measured"] - payload["imax_formula"]) < 1e-9
    assert out_file.exists()
    assert len(out_file.read_text().splitlines()) == 162


def test_codebook_without_support_exits_2(capsys):
    code, _, err = run(capsys, "codebook", "-p", "2", "-n", "2", "-s", "1", "-m", "2", "-k", "1")
    assert code == 2
    assert "zero on all of S" in err


def test_table2_command(capsys):
    code, out, _ = run(capsys, "table2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 8
    assert payload["rows"][0]["N"] == 146410


def test_table2_bad_q(capsys):
    code, _, err = run(capsys, "table2", "12")
    assert code == 2
    assert "prime power" in err


def test_verify_green_suite(capsys):
    code, out, _ = run(capsys, "verify", "counting")
    assert code == 0
    assert "FAIL" not in out


def test_verify_red_suite(capsys):
    # the recursion suite keeps the stated scale factor, which brute force refutes
    code, out, _ = run(capsys, "verify", "recursion", "--json")
    assert code == 4
    payload = json.loads(out)
    labels = {c["label"]: c["ok"] for s in payload["suites"] for c in s["checks"]}
    assert any("stated factor" in k and not v for k, v in labels.items())
    assert all(v for k, v in labels.items() if "corrected factor" in k)


def test_output_file(capsys, tmp_path):
    path = tmp_path / "ring.json"
    code, out, _ = run(
        capsys, "ring", "-p", "3", "-n", "2", "-s", "1", "--json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["element_count"] == 9


@pytest.mark.parametrize(
    "extra, digest", [((), "51165c58480e3550"), (("--seed", "3"), "46ef16983d595eef")]
)
def test_verify_all_json_is_pinned(extra, digest):
    """`verify all --json` output, byte for byte: the 7 deliberate reds, exit 4.

    A change to the output on purpose updates these digests and says so.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "galois_sums.cli", "verify", "all", "--json", *extra],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
    )
    assert out.returncode == 4
    assert hashlib.sha256(out.stdout).hexdigest()[:16] == digest


def test_verify_all_does_not_import_numpy_ma():
    """A fresh `verify all --json` leaves numpy.ma unimported: importing it costs
    every fresh process about 10 ms and 0.6 MB of peak RSS."""
    code = (
        "import sys\n"
        "from galois_sums.cli import main\n"
        "code = main(['verify', 'all', '--json'])\n"
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.stderr.split() == ["4", "False"]


RING = ("-p", "3", "-n", "2", "-s", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "--tol", "1e-3"),
        ("verify", "counting", "--cap-terms", "5"),
        ("ring", *RING, "--seed", "1"),
        ("chars", *RING, "--tol", "1e-3"),
        ("gauss", *RING, "--char", "1,1", "--b", "1", "--cap-terms", "5"),
        ("jacobi", *RING, "--chars", "0,0;0,0", "--a", "1", "--seed", "1"),
        ("tilde-jacobi", *RING, "--chars", "0,0;0,0", "--a", "1", "-k", "1", "--cap-pairs", "5"),
        ("codebook", *RING, "-m", "3", "-k", "1", "--tol", "1e-3"),
        ("table2", "--seed", "1"),
    ],
)
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    """An option a subcommand would ignore is a usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("jacobi", *RING, "--chars", "1,2,3;1,0", "--a", "1"),  # an over-long first tuple
        ("gauss", *RING, "--char", "1,2,7", "--b", "1"),
        ("codebook", *RING, "-m", "3", "-k", "1", "--psi0", "1,5"),  # psi0 lives over Z/3: r = 1
        ("gauss", *RING, "--char", "1,1;0,2", "--b", "1"),  # two tuples where one is read
    ],
)
def test_exponent_tuples_of_the_wrong_count_or_width_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "r = " in err or "one exponent tuple" in err


# sha256[:16] of the --json output of single-tuple sums, each taken before
# the single-tuple calls became C = 1 rows of the table functions
SINGLE_SUMS = [
    (("gauss", *RING, "--char", "1,1", "--b", "1"), "primitive-unit-twist", "78f347256af3f797"),
    (("gauss", "-p", "2", "-n", "2", "-s", "2", "--char", "1,0,0", "--b", "p"),
     "matched-ideal-twist", "27570f5b9ecd9891"),
    (("jacobi", *RING, "--chars", "1,1;1,1", "--a", "1"), "gauss-quotient-pair", "e42ce81d21232712"),
    (("jacobi", "-p", "3", "-n", "3", "-s", "1", "--chars", "1,3;1,6;0,3", "--a", "1"),
     "digit-reduction", "e8878a78f179cf35"),
    (("jacobi", *RING, "--chars", "1,1;1,2;0,0", "--a", "0"), "zero-twist-split", "1d721516d7bd1f33"),
    # non-canonical twists: the value is rotated by the product character at the twist
    (("jacobi", *RING, "--chars", "1,1;0,1", "--a", "2"), "gauss-quotient-pair", "725a7422dc1d236f"),
    (("jacobi", "-p", "3", "-n", "3", "-s", "1", "--chars", "1,1;1,2", "--a", "6"),
     "gauss-quotient-ideal-pair", "151de26c2d7461bb"),
    (("tilde-jacobi", *RING, "--chars", "1,1;1,2", "--a", "2", "-k", "1"),
     "unit-restricted", "9dce35d2e6ee614a"),
    (("tilde-jacobi", *RING, "--chars", "1,1;0,0;1,1", "--a", "1", "-k", "1"),
     "mixed-free-block", "c956274fa3b2c89f"),
]


@pytest.mark.parametrize("argv, lemma, digest", SINGLE_SUMS)
def test_single_sum_json_is_pinned(capsys, argv, lemma, digest):
    """gauss, jacobi and tilde-jacobi --json, byte for byte.

    A change to the output on purpose updates these digests and says so.
    """
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["lemma"] == lemma
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_subcommands_take_the_options_they_read(capsys):
    code, out, _ = run(capsys, "gauss", *RING, "--char", "1,1", "--b", "1", "--tol", "1e-6")
    assert code == 0 and "agree: True" in out
    code, _, err = run(capsys, "codebook", *RING, "-m", "3", "-k", "1", "--cap-pairs", "5")
    assert code == 3 and "budget" in err
    code, _, _ = run(
        capsys,
        "tilde-jacobi", *RING, "--chars", "0,0;0,0", "--a", "1", "-k", "1",
        "--cap-terms", "2", "--tol", "1e-6",
    )
    assert code == 3
    code, out, _ = run(capsys, "verify", "tilde-cases", "--seed", "3")
    assert code == 0 and "FAIL" not in out
