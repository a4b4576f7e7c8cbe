from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import galois_sums
import galois_sums.cli as cli
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


@pytest.mark.parametrize("shape", [("2", "20", "1000"), ("10000000000000061", "1", "1")])
def test_oversize_rings_exit_3_at_once(capsys, shape):
    """A 6,000-digit element count, and a 17-digit prime p whose trial division
    would take minutes: the element cap refuses both first, without the count."""
    p, n, s = shape
    start = time.perf_counter()
    code, _, err = run(capsys, "ring", "-p", p, "-n", n, "-s", s)
    assert code == 3 and "exceeds the cap" in err and len(err) < 200
    assert time.perf_counter() - start < 1.0


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


def disagreeing_jacobi(monkeypatch):
    """Moves every CLI Jacobi value by 1, off its expectation."""
    jacobi = cli.jacobi

    def moved(*args, **kwargs):
        sv = jacobi(*args, **kwargs)
        sv.value += 1.0
        return sv

    monkeypatch.setattr(cli, "jacobi", moved)


def test_gauss_jacobi_and_tilde_jacobi_read_tol_by_one_rule(capsys, monkeypatch):
    """Each sum agrees within the larger of --tol and its term tolerance.

    The Gauss sum over GR(2^5, 2^15) has 28,672 terms and a rounding error
    of 6.7e-12, above --tol 1e-12 but within its term tolerance 2.9e-8.
    """
    big = ("-p", "2", "-n", "5", "-s", "3")
    for argv in [
        ("gauss", *big, "--char", "5,9,1,0,0", "--b", "1"),
        ("jacobi", "-p", "3", "-n", "2", "-s", "1", "--chars", "1,1;1,1", "--a", "1"),
        ("tilde-jacobi", "-p", "3", "-n", "2", "-s", "1", "--chars", "1,1;1,2", "--a", "2", "-k", "1"),
    ]:
        code, out, _ = run(capsys, *argv, "--tol", "1e-12")
        assert code == 0 and "agree: True" in out, argv
    disagreeing_jacobi(monkeypatch)
    code, _, _ = run(
        capsys,
        "jacobi", "-p", "3", "-n", "2", "-s", "1", "--chars", "0,0;0,0", "--a", "1", "--tol", "2",
    )
    assert code == 0  # a value moved by 1 agrees within --tol 2


def test_jacobi_disagreement_injection_exits_4(capsys, monkeypatch):
    disagreeing_jacobi(monkeypatch)
    code, _, _ = run(capsys, "jacobi", "-p", "3", "-n", "2", "-s", "1", "--chars", "0,0;0,0", "--a", "1")
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


def test_table2_large_q_exits_at_once(capsys):
    """A 17-digit prime is decided by Miller-Rabin, not trial division; a q past
    the bases' bound is a resource error."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "table2", "10000000000000061")
    assert code == 0 and "10000000000000061" in out
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "table2", "3317044064679887385961981")
    assert code == 3 and "bound" in err


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
        ("ring", *RING, "--cap-elements", "-5"),
        ("chars", *RING, "--cap-elements", "0"),
        ("jacobi", *RING, "--chars", "0,0", "--a", "1", "--cap-terms", "0"),
        ("codebook", *RING, "-m", "3", "-k", "1", "--cap-pairs", "-1"),
        ("codebook", *RING, "-m", "3", "-k", "1", "--cap-pairs", "1.5"),
    ],
)
def test_a_cap_below_1_or_not_an_integer_is_a_usage_error(capsys, argv):
    """--cap-elements, --cap-terms and --cap-pairs take integers of at least 1, at parse time."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "a cap must be an integer of at least 1" in capsys.readouterr().err


def test_codebook_over_the_pair_budget_exits_3_before_the_build(capsys, monkeypatch):
    """The pair budget is checked on N and K from codebook_size: no codebook is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_codebook called")

    monkeypatch.setattr(cli, "build_codebook", refuse)
    code, out, err = run(capsys, "codebook", *RING, "-m", "3", "-k", "1", "--cap-pairs", "5")
    N, K = galois_sums.codebook_size(3, 2, 3, 1)
    assert code == 3 and out == ""
    assert err == f"error: pair scan exceeds budget: {N * (N - 1) // 2 * K} pair entries, budget 5\n"


@pytest.mark.parametrize("suite", sorted(set(cli.SUITES) - set(cli.SEEDED_SUITES)))
def test_verify_seed_on_an_unseeded_suite_exits_2(capsys, suite):
    """Only the seeded suites and verify all read --seed; any other suite refuses it."""
    code, out, err = run(capsys, "verify", suite, "--seed", "5")
    assert code == 2 and out == "" and "takes no --seed" in err


def test_public_api_is_pinned():
    """galois_sums.__all__, sorted: a change to the public API is a deliberate edit here."""
    assert sorted(galois_sums.__all__) == [
        "BadLevel", "BrokenInvariant", "Codebook", "CodebookError", "CodebookParams",
        "DegenerateDimensions", "EvalReport", "Expected", "GaloisRing", "GaloisSumsError",
        "InvalidModulus", "MultCharacter", "NotAUnit", "NotInBaseRing", "NotPrimePower",
        "RingElement", "RingMismatch", "RootOfUnity", "SUITES",
        "SizeLimit", "SuiteResult", "SumValue", "Table2Row", "TooLarge", "UnitGroupBasis",
        "asymptotic_ratio", "build_codebook", "build_ring", "canonical_twists", "canonicalize",
        "character_levels", "character_table_json", "codebook_size", "count_unit_solutions",
        "count_unit_solutions_brute", "decompose_unit_group", "enumerate_characters",
        "export_codebook", "extend_phi", "find_basic_primitive_poly", "gauss_sum",
        "imax_exhaustive", "imax_formula", "imax_remark", "import_codebook", "jacobi",
        "jacobi_brute", "jacobi_expected", "run_suite", "s_cardinality", "s_cardinality_qn",
        "section_json", "table2", "term_tolerance", "tilde_jacobi_brute",
        "tilde_jacobi_classify", "welch_bound",
    ]


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
    (("gauss", *RING, "--char", "1,1", "--b", "1"), "primitive-unit-twist", "14d25b5b379e6d4f"),
    (("gauss", "-p", "2", "-n", "2", "-s", "2", "--char", "1,0,0", "--b", "p"),
     "matched-ideal-twist", "c2bfce77e0c3adfc"),
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


@pytest.mark.parametrize(
    "argv, symbol",
    [
        (("gauss", *RING, "--char", "1,1", "--b", "1"), "G"),
        (("jacobi", *RING, "--chars", "1,1;1,1", "--a", "1"), "J"),
        (("tilde-jacobi", *RING, "--chars", "1,1;1,2", "--a", "2", "-k", "1"), "J~"),
    ],
)
def test_the_three_sum_commands_share_one_report(capsys, argv, symbol):
    """One --json key list and one text line: symbol, value, law, terms, agreement."""
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0
    assert list(payload) == ["ring", "value", "expected", "lemma", "terms", "agree"]
    code, out, _ = run(capsys, *argv)
    value, law, terms, agree = out.rstrip("\n").split("  ")
    assert code == 0 and value.startswith(f"{symbol} = ")
    assert law == f"expected {payload['expected']['kind']} ({payload['lemma']})"
    assert terms == f"terms {payload['terms']}" and agree == "agree: True"


def test_cap_options_default_to_the_package_caps():
    parser = cli.make_parser()
    args = parser.parse_args(["jacobi", *RING, "--chars", "0,0", "--a", "1"])
    assert args.cap_elements == galois_sums.ring.DEFAULT_ELEMENT_CAP
    assert args.cap_terms == galois_sums.sums.DEFAULT_TERM_CAP
    args = parser.parse_args(["codebook", *RING, "-m", "3", "-k", "1"])
    assert args.cap_pairs == galois_sums.codebook.DEFAULT_PAIR_BUDGET


@pytest.mark.parametrize(
    "argv",
    [
        ("gauss", *RING, "--char", "1,1", "--b", "1", "--out"),
        ("codebook", *RING, "-m", "3", "-k", "1", "--export"),
    ],
)
def test_an_output_path_that_cannot_be_written_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing/x", "a-file/x", "."])
@pytest.mark.parametrize(
    "argv",
    [
        ("codebook", *RING, "-m", "3", "-k", "1", "--export"),
        ("verify", "all", "--out"),
    ],
)
def test_an_unwritable_output_path_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv, where):
    """A missing directory, a directory that is a file, and a path that is a directory."""

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(cli, "build_codebook", refuse)
    monkeypatch.setattr(cli, "run_suite", refuse)
    (tmp_path / "a-file").write_text("")
    code, out, err = run(capsys, *argv, str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
